package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustOpen(t *testing.T, dir string) *Journal {
	t.Helper()
	j, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func appendAll(t *testing.T, j *Journal, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(1, []byte(r)); err != nil {
			t.Fatal(err)
		}
	}
}

func payloads(recs []Record) []string {
	out := make([]string, 0, len(recs))
	for _, r := range recs {
		out = append(out, string(r.Payload))
	}
	return out
}

func TestFreshJournalIsEmpty(t *testing.T) {
	j := mustOpen(t, t.TempDir())
	defer j.Close()
	if j.Stats().Recovered {
		t.Fatal("fresh journal claims recovery")
	}
	if j.Snapshot() != nil || len(j.Records()) != 0 || j.Seq() != 0 {
		t.Fatalf("fresh journal not empty: %+v", j.Stats())
	}
}

func TestAppendReopenReplaysInOrder(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	appendAll(t, j, "a", "b", "c")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir)
	defer j2.Close()
	st := j2.Stats()
	if !st.Recovered || st.Records != 3 || st.TruncatedBytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
	got := payloads(j2.Records())
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("records = %v, want %v", got, want)
		}
	}
	if j2.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", j2.Seq())
	}
	// Appends continue the sequence.
	appendAll(t, j2, "d")
	if j2.Seq() != 4 {
		t.Fatalf("seq after append = %d, want 4", j2.Seq())
	}
}

func TestTornTailTruncatedToLastValidRecord(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	appendAll(t, j, "keep-1", "keep-2", "torn")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: cut it mid-payload.
	wal := filepath.Join(dir, walName)
	buf, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, buf[:len(buf)-6], 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir)
	defer j2.Close()
	st := j2.Stats()
	if st.Records != 2 || st.TruncatedBytes == 0 {
		t.Fatalf("stats = %+v, want 2 records and a truncated tail", st)
	}
	if got := payloads(j2.Records()); got[0] != "keep-1" || got[1] != "keep-2" {
		t.Fatalf("records = %v", got)
	}
	// The file itself must have been cut back, so a third open is clean.
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	j3 := mustOpen(t, dir)
	defer j3.Close()
	if j3.Stats().TruncatedBytes != 0 {
		t.Fatalf("second recovery still truncating: %+v", j3.Stats())
	}
	// New appends after recovery land where the tail was cut.
	appendAll(t, j3, "after")
	fi2, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.Size() <= fi.Size() {
		t.Fatalf("append did not grow the truncated log: %d -> %d", fi.Size(), fi2.Size())
	}
}

func TestCorruptRecordCutsItAndEverythingAfter(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	appendAll(t, j, "good", "flipped", "unreachable")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	wal := filepath.Join(dir, walName)
	buf, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the middle record. Record 1 occupies
	// [0, recLen("good")); flip inside record 2's payload.
	rec1 := recHeaderSize + len("good") + recTrailerSize
	buf[rec1+recHeaderSize] ^= 0x40
	if err := os.WriteFile(wal, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir)
	defer j2.Close()
	if got := payloads(j2.Records()); len(got) != 1 || got[0] != "good" {
		t.Fatalf("records = %v, want [good]", got)
	}
	if j2.Stats().TruncatedBytes == 0 {
		t.Fatal("corrupt record not counted as truncated")
	}
}

func TestCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	appendAll(t, j, "a", "b")
	if err := j.Checkpoint([]byte("state-ab")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "c")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir)
	defer j2.Close()
	if !bytes.Equal(j2.Snapshot(), []byte("state-ab")) {
		t.Fatalf("snapshot = %q", j2.Snapshot())
	}
	st := j2.Stats()
	if st.SnapshotSeq != 2 || st.Records != 1 || st.StaleRecords != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := payloads(j2.Records()); got[0] != "c" {
		t.Fatalf("records = %v, want [c]", got)
	}
	if j2.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", j2.Seq())
	}
}

func TestCrashBetweenSnapshotRenameAndLogReset(t *testing.T) {
	// Simulate the crash window: snapshot committed but the old log still
	// holds the records it covers. Recovery must not replay them twice.
	dir := t.TempDir()
	j := mustOpen(t, dir)
	appendAll(t, j, "a", "b")
	if err := writeSnapshotFile(OSFS{}, filepath.Join(dir, snapTempName), j.Seq(), []byte("covers-ab")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, snapTempName), filepath.Join(dir, snapName)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // crash before the log reset
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir)
	defer j2.Close()
	st := j2.Stats()
	if st.SnapshotSeq != 2 || st.Records != 0 || st.StaleRecords != 2 {
		t.Fatalf("stats = %+v, want snapshot seq 2 covering both stale records", st)
	}
	if !bytes.Equal(j2.Snapshot(), []byte("covers-ab")) {
		t.Fatalf("snapshot = %q", j2.Snapshot())
	}
	// The sequence continues after the covered records.
	appendAll(t, j2, "c")
	if j2.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", j2.Seq())
	}
}

func TestStaleSnapshotTempIsDropped(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapTempName), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := mustOpen(t, dir)
	defer j.Close()
	if _, err := os.Stat(filepath.Join(dir, snapTempName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp survived open: %v", err)
	}
}

func TestCorruptSnapshotRefusedLoudly(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	appendAll(t, j, "a")
	if err := j.Checkpoint([]byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, snapName)
	buf, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-5] ^= 0x01
	if err := os.WriteFile(snap, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j := mustOpen(t, t.TempDir())
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := j.Checkpoint(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestPayloadTooBigRejected(t *testing.T) {
	j := mustOpen(t, t.TempDir())
	defer j.Close()
	if err := j.Append(1, make([]byte, MaxPayload+1)); !errors.Is(err, ErrPayloadTooBig) {
		t.Fatalf("err = %v, want ErrPayloadTooBig", err)
	}
}

func TestEmptyPayloadRoundTrips(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	if err := j.Append(7, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir)
	defer j2.Close()
	recs := j2.Records()
	if len(recs) != 1 || recs[0].Type != 7 || len(recs[0].Payload) != 0 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestSingleWriterGuard(t *testing.T) {
	j := mustOpen(t, t.TempDir())
	defer j.Close()

	// Simulate an overlapping writer: with the write slot held, both Append
	// and Checkpoint must refuse rather than interleave fsynced frames.
	if !j.writing.CompareAndSwap(false, true) {
		t.Fatal("write slot unexpectedly held")
	}
	if err := j.Append(1, []byte("x")); !errors.Is(err, ErrConcurrentUse) {
		t.Fatalf("Append under held slot: %v, want ErrConcurrentUse", err)
	}
	if err := j.Checkpoint([]byte("snap")); !errors.Is(err, ErrConcurrentUse) {
		t.Fatalf("Checkpoint under held slot: %v, want ErrConcurrentUse", err)
	}
	j.writing.Store(false)

	// Slot released: normal operation resumes.
	appendAll(t, j, "a")
	if err := j.Checkpoint([]byte("snap")); err != nil {
		t.Fatal(err)
	}
}

// frame encodes one record the way the log stores it, independently of
// the journal's own framing code.
func frame(dst []byte, typ byte, seq uint64, payload []byte) []byte {
	at := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[at+4:], crcTable))
}

func TestAppendBatchWritesAppendsBytes(t *testing.T) {
	batched, single := t.TempDir(), t.TempDir()
	entries := []Entry{{Type: 3, Payload: []byte("first")}, {Type: 1}, {Type: 4, Payload: bytes.Repeat([]byte{7}, 300)}}

	jb := mustOpen(t, batched)
	appendAll(t, jb, "lead")
	if err := jb.AppendBatch(entries...); err != nil {
		t.Fatal(err)
	}
	if jb.Seq() != 4 {
		t.Fatalf("seq after batch = %d, want 4", jb.Seq())
	}
	js := mustOpen(t, single)
	appendAll(t, js, "lead")
	for _, e := range entries {
		if err := js.Append(e.Type, e.Payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range []*Journal{jb, js} {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(filepath.Join(batched, walName))
	if err != nil {
		t.Fatal(err)
	}
	s, err := os.ReadFile(filepath.Join(single, walName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, s) {
		t.Fatalf("batched log differs from single appends:\n%x\n%x", b, s)
	}
	want := frame(nil, 1, 1, []byte("lead"))
	for i, e := range entries {
		want = frame(want, e.Type, uint64(2+i), e.Payload)
	}
	if !bytes.Equal(b, want) {
		t.Fatal("batched log is not the documented framing")
	}
}

// TestTornBatchRecoversRecordPrefix cuts a log inside a batch at every byte
// offset: recovery must keep the records before the batch plus the batch
// records that landed whole, with contiguous sequence numbers, and the next
// append must continue the sequence.
func TestTornBatchRecoversRecordPrefix(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	appendAll(t, j, "a", "b")
	batch := []Entry{{Type: 2, Payload: []byte("c")}, {Type: 2, Payload: []byte("dd")}, {Type: 2, Payload: []byte("eee")}}
	if err := j.AppendBatch(batch...); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	lead := 2 * (recHeaderSize + 1 + recTrailerSize)
	ends := []int{lead}
	for _, e := range batch {
		ends = append(ends, ends[len(ends)-1]+recHeaderSize+len(e.Payload)+recTrailerSize)
	}
	if ends[len(ends)-1] != len(full) {
		t.Fatalf("log is %d bytes, want %d", len(full), ends[len(ends)-1])
	}
	want := []string{"a", "b", "c", "dd", "eee"}
	for cut := lead; cut <= len(full); cut++ {
		whole := 0
		for whole < len(batch) && ends[whole+1] <= cut {
			whole++
		}
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, walName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r := mustOpen(t, d)
		recs := r.Records()
		if got, exp := payloads(recs), want[:2+whole]; strings.Join(got, ",") != strings.Join(exp, ",") {
			t.Fatalf("cut %d: records %v, want %v", cut, got, exp)
		}
		for i, rec := range recs {
			if rec.Seq != uint64(i+1) {
				t.Fatalf("cut %d: record %d has seq %d", cut, i, rec.Seq)
			}
		}
		if got := r.Stats().TruncatedBytes; got != int64(cut-ends[whole]) {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, got, cut-ends[whole])
		}
		if err := r.AppendBatch(Entry{Type: 9, Payload: []byte("next")}); err != nil {
			t.Fatal(err)
		}
		if r.Seq() != uint64(3+whole) {
			t.Fatalf("cut %d: seq after append = %d, want %d", cut, r.Seq(), 3+whole)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// countingFS counts the writes and syncs of every file it opens.
type countingFS struct {
	OSFS
	writes, syncs *int
}

type countingFile struct {
	File
	fs countingFS
}

func (c countingFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := c.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c}, nil
}

func (f countingFile) Write(p []byte) (int, error) {
	*f.fs.writes++
	return f.File.Write(p)
}

func (f countingFile) Sync() error {
	*f.fs.syncs++
	return f.File.Sync()
}

func TestAppendBatchSyncsOncePerBatch(t *testing.T) {
	var writes, syncs int
	j, err := Open(t.TempDir(), &Options{FS: countingFS{writes: &writes, syncs: &syncs}})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.AppendBatch(); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatch([]Entry{}...); err != nil {
		t.Fatal(err)
	}
	if writes != 0 || syncs != 0 || j.Seq() != 0 {
		t.Fatalf("empty batches: %d writes, %d syncs, seq %d; want none", writes, syncs, j.Seq())
	}
	if err := j.AppendBatch(Entry{Type: 1}, Entry{Type: 1}, Entry{Type: 1}); err != nil {
		t.Fatal(err)
	}
	if writes != 1 || syncs != 1 || j.Seq() != 3 {
		t.Fatalf("3-record batch: %d writes, %d syncs, seq %d; want 1, 1, 3", writes, syncs, j.Seq())
	}
}

func TestAppendBatchRefusals(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	defer j.Close()
	appendAll(t, j, "a")

	if !j.writing.CompareAndSwap(false, true) {
		t.Fatal("write slot unexpectedly held")
	}
	if err := j.AppendBatch(Entry{Type: 1}); !errors.Is(err, ErrConcurrentUse) {
		t.Fatalf("AppendBatch under held slot: %v, want ErrConcurrentUse", err)
	}
	if err := j.AppendBatch(); !errors.Is(err, ErrConcurrentUse) {
		t.Fatalf("empty AppendBatch under held slot: %v, want ErrConcurrentUse", err)
	}
	j.writing.Store(false)

	// One oversized record refuses the whole batch: nothing is written and
	// the sequence does not move.
	err := j.AppendBatch(Entry{Type: 1, Payload: []byte("ok")}, Entry{Type: 1, Payload: make([]byte, MaxPayload+1)})
	if !errors.Is(err, ErrPayloadTooBig) {
		t.Fatalf("oversized batch: %v, want ErrPayloadTooBig", err)
	}
	if j.Seq() != 1 {
		t.Fatalf("seq after refused batch = %d, want 1", j.Seq())
	}
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(recHeaderSize + 1 + recTrailerSize); fi.Size() != want {
		t.Fatalf("log is %d bytes after a refused batch, want %d", fi.Size(), want)
	}
}

// TestSequenceRegressionCutsTail: a CRC-valid frame whose sequence does not
// grow is not one this journal wrote; recovery cuts it like a corrupt one.
func TestSequenceRegressionCutsTail(t *testing.T) {
	dir := t.TempDir()
	log := frame(nil, 1, 1, []byte("a"))
	log = frame(log, 1, 2, []byte("b"))
	keep := len(log)
	log = frame(log, 1, 2, []byte("replayed"))
	log = frame(log, 1, 3, []byte("c"))
	if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	j := mustOpen(t, dir)
	defer j.Close()
	if got := payloads(j.Records()); strings.Join(got, ",") != "a,b" {
		t.Fatalf("records = %v, want [a b]", got)
	}
	if got := j.Stats().TruncatedBytes; got != int64(len(log)-keep) {
		t.Fatalf("truncated %d bytes, want %d", got, len(log)-keep)
	}
}
