package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalRecover feeds arbitrary bytes to recovery as a write-ahead
// log. Open must not panic or fail; the records it keeps must be exactly
// the log's surviving bytes re-framed (so every one is CRC-valid) with
// strictly increasing sequence numbers; and a batch appended after
// recovery must reopen as those records followed by the batch.
func FuzzJournalRecover(f *testing.F) {
	valid := frame(nil, 1, 1, []byte("a"))
	valid = frame(valid, 3, 2, bytes.Repeat([]byte{0xAB}, 40))
	valid = frame(valid, 2, 3, nil)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte(nil), valid...), valid...))
	f.Add(frame(nil, 1, 7, []byte("late start")))
	f.Add([]byte("not a journal at all"))

	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		recs := append([]Record(nil), j.Records()...)
		var reframed []byte
		var prev uint64
		for i, r := range recs {
			if r.Seq <= prev {
				t.Fatalf("record %d: seq %d after %d", i, r.Seq, prev)
			}
			prev = r.Seq
			reframed = frame(reframed, r.Type, r.Seq, r.Payload)
		}
		if !bytes.HasPrefix(log, reframed) || int64(len(log)-len(reframed)) != j.Stats().TruncatedBytes {
			t.Fatalf("kept %d records (%d bytes) that are not the log's valid prefix (truncated %d of %d)",
				len(recs), len(reframed), j.Stats().TruncatedBytes, len(log))
		}
		if len(recs) > 0 && j.Seq() != prev {
			t.Fatalf("seq = %d, want last record's %d", j.Seq(), prev)
		}

		batch := []Entry{{Type: 5, Payload: []byte("x")}, {Type: 6, Payload: log[:len(log)/2]}}
		if err := j.AppendBatch(batch...); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer r.Close()
		got := r.Records()
		if len(got) != len(recs)+len(batch) || r.Stats().TruncatedBytes != 0 {
			t.Fatalf("reopen: %d records (%d truncated bytes), want %d + %d",
				len(got), r.Stats().TruncatedBytes, len(recs), len(batch))
		}
		for i, rec := range recs {
			if g := got[i]; g.Seq != rec.Seq || g.Type != rec.Type || !bytes.Equal(g.Payload, rec.Payload) {
				t.Fatalf("reopen: record %d changed", i)
			}
		}
		for i, e := range batch {
			g := got[len(recs)+i]
			if g.Seq != prev+1+uint64(i) || g.Type != e.Type || !bytes.Equal(g.Payload, e.Payload) {
				t.Fatalf("reopen: batch record %d = seq %d type %d, want seq %d type %d",
					i, g.Seq, g.Type, prev+1+uint64(i), e.Type)
			}
		}
	})
}
