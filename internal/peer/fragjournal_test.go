package peer

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"photodtn/internal/faults"
	"photodtn/internal/guard"
	"photodtn/internal/journal"
	"photodtn/internal/model"
	"photodtn/internal/wire"
)

// The live-ingest shape: two photos of four 16 KiB chunks per upload,
// behind the default window of eight.
const (
	ingestShapePayload = 64 << 10
	ingestShapeChunk   = 16 << 10
)

// chunkTap records every chunk frame written through it, in stream order.
// Each wire frame goes out as one Write, so each Write decodes alone.
type chunkTap struct {
	net.Conn
	mu     sync.Mutex
	chunks []wire.Chunk
}

func (t *chunkTap) Write(p []byte) (int, error) {
	if msg, err := wire.Read(bytes.NewReader(p)); err == nil {
		if c, ok := msg.(wire.Chunk); ok {
			t.mu.Lock()
			t.chunks = append(t.chunks, c)
			t.mu.Unlock()
		}
	}
	return t.Conn.Write(p)
}

// ingestGateway returns a memory-only gateway holding the two photos of
// one live-ingest upload.
func ingestGateway(t *testing.T) (*Peer, []model.PhotoID) {
	t.Helper()
	gw := New(3, poiMap(), 64*mb, WithSeed(2), fixedClock(1000),
		WithPayloadBytes(ingestShapePayload),
		WithTransfer(TransferConfig{ChunkSize: ingestShapeChunk, Resume: true}))
	var ids []model.PhotoID
	for i, deg := range []float64{0, 90} {
		ph := viewFrom(3, uint32(i), deg)
		if err := gw.AddPhoto(ph); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ph.ID)
	}
	return gw, ids
}

// ingestCCOpts configures the command center like live-ingest's: guarded,
// resumable 16 KiB chunks.
func ingestCCOpts() []Option {
	return []Option{WithSeed(1), fixedClock(1000), WithGuard(guard.Config{}),
		WithTransfer(TransferConfig{ChunkSize: ingestShapeChunk, Resume: true})}
}

// checkStreamPrefix fails unless held — a recovered reassembly store's
// chunks — is exactly the first len(held) chunks of stream, byte for byte.
func checkStreamPrefix(t *testing.T, label string, held, stream []wire.Chunk) {
	t.Helper()
	if len(held) > len(stream) {
		t.Fatalf("%s: recovered %d chunks from a %d-chunk stream", label, len(held), len(stream))
	}
	want := make(map[guard.ChunkKey][]byte, len(held))
	for _, c := range stream[:len(held)] {
		want[guard.ChunkKey{ID: c.Photo.ID, Index: c.Index}] = c.Data
	}
	for _, c := range held {
		data, ok := want[guard.ChunkKey{ID: c.Photo.ID, Index: c.Index}]
		if !ok {
			t.Fatalf("%s: recovered %v[%d] outside the stream's first %d chunks", label, c.Photo.ID, c.Index, len(held))
		}
		if !bytes.Equal(c.Data, data) {
			t.Fatalf("%s: recovered %v[%d] with bytes that differ from the stream's", label, c.Photo.ID, c.Index)
		}
	}
}

// TestChaosFragmentDiskKillSweep kills a durable command center's disk at
// every mutating operation of one live-ingest upload — clean kills and torn
// final writes — while the fragment journal takes the chunk stream. After
// each restart the recovered partials must be a byte-exact prefix of the
// stream, and the recovery contact must deliver each photo exactly once,
// re-sending only the chunks that did not survive, with the command center
// converging to the fault-free reference digest.
func TestChaosFragmentDiskKillSweep(t *testing.T) {
	m := poiMap()
	ref := New(model.CommandCenter, m, 0, ingestCCOpts()...)
	refGW, ids := ingestGateway(t)
	ca, cb := net.Pipe()
	tap := &chunkTap{Conn: ca}
	if errGW, errCC := faultContact(refGW, ref, tap, ca, cb); errGW != nil || errCC != nil {
		t.Fatalf("reference upload: gateway %v, command center %v", errGW, errCC)
	}
	stream := tap.chunks
	if len(stream) != 2*ingestShapePayload/ingestShapeChunk {
		t.Fatalf("reference stream carried %d chunks, want %d", len(stream), 2*ingestShapePayload/ingestShapeChunk)
	}
	wantDigest := ref.StateDigest()

	for _, torn := range []bool{false, true} {
		crashed, recoveredChunks := 0, 0
		for killOp := 1; ; killOp++ {
			label := fmt.Sprintf("kill op %d (torn=%v)", killOp, torn)
			dir := t.TempDir()
			inj := faults.NewDiskInjector(faults.DiskConfig{FailAtOp: killOp, TornWrite: torn}, nil)
			gw, _ := ingestGateway(t)
			cc, err := Open(dir, model.CommandCenter, m, 0, append(ingestCCOpts(), WithJournalFS(inj))...)
			if err == nil {
				errGW, errCC := tryContact(gw, cc)
				_ = cc.Close()
				if inj.Ops() < killOp {
					// The kill never fired: the sweep has covered every op.
					if errGW != nil || errCC != nil {
						t.Fatalf("%s: clean upload failed: gateway %v, command center %v", label, errGW, errCC)
					}
					if got := cc.StateDigest(); got != wantDigest {
						t.Fatalf("%s: clean digest %x, want %x", label, got, wantDigest)
					}
					break
				}
				if !errors.Is(errCC, ErrJournal) {
					t.Fatalf("%s: command center err = %v, want ErrJournal in the chain", label, errCC)
				}
			}
			crashed++

			cc2, err := Open(dir, model.CommandCenter, m, 0, ingestCCOpts()...)
			if err != nil {
				t.Fatalf("%s: recovery: %v", label, err)
			}
			held := cc2.frags.Held()
			checkStreamPrefix(t, label, held, stream)
			recoveredChunks += len(held)
			committed := cc2.JournalStats().Commits
			if committed == 1 {
				// The upload's commit survived the kill: the recovered
				// state already is the reference.
				if got := cc2.StateDigest(); got != wantDigest {
					t.Fatalf("%s: recovered committed digest %x, want %x", label, got, wantDigest)
				}
			}
			sentBefore := gw.TransferStats().ChunksSent
			if errGW, errCC := tryContact(gw, cc2); errGW != nil || errCC != nil {
				t.Fatalf("%s: recovery contact: gateway %v, command center %v", label, errGW, errCC)
			}
			resent := gw.TransferStats().ChunksSent - sentBefore
			switch committed {
			case 0:
				if want := int64(len(stream) - len(held)); resent != want {
					t.Fatalf("%s: recovery contact sent %d chunks, want %d (stream less recovered)", label, resent, want)
				}
				if got := cc2.StateDigest(); got != wantDigest {
					t.Fatalf("%s: digest %x after recovery contact, want %x", label, got, wantDigest)
				}
			case 1:
				if resent != 0 {
					t.Fatalf("%s: %d chunks re-sent for photos already committed", label, resent)
				}
			default:
				t.Fatalf("%s: %d durable commits after one upload", label, committed)
			}
			got := cc2.Photos()
			if len(got) != len(ids) || !got.Contains(ids[0]) || !got.Contains(ids[1]) {
				t.Fatalf("%s: command center holds %v, want each of %v once", label, got.IDs(), ids)
			}
			if n := len(gw.Photos()); n != 0 {
				t.Fatalf("%s: gateway still holds %d delivered photos", label, n)
			}
			if st := cc2.TransferStats(); st.WastedBytes != 0 || st.Partials != 0 {
				t.Fatalf("%s: recovered fragments left waste: %+v", label, st)
			}
			if err := cc2.Close(); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("torn=%v: %d kill points, %d chunks recovered in all", torn, crashed, recoveredChunks)
		if crashed == 0 {
			t.Fatalf("torn=%v sweep never crashed — injector miswired", torn)
		}
		if recoveredChunks == 0 {
			t.Fatalf("torn=%v sweep never recovered a fragment — it misses the chunk stream", torn)
		}
	}
}

// frameReader serves a scripted remote's frames one Read at a time, never
// more than one frame per Read, so a read-ahead buffer never holds a
// second whole frame and every batch is a single chunk.
type frameReader struct{ frames [][]byte }

func (r *frameReader) Read(p []byte) (int, error) {
	if len(r.frames) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.frames[0])
	if r.frames[0] = r.frames[0][n:]; len(r.frames[0]) == 0 {
		r.frames = r.frames[1:]
	}
	return n, nil
}

// scriptedConn is one side of a chunk leg: reads come from a script,
// writes (the receiver's acks) are counted and dropped.
type scriptedConn struct {
	io.Reader
	acks int
}

func (c *scriptedConn) Write(p []byte) (int, error) {
	c.acks++
	return len(p), nil
}

// ingestChunks returns the chunk plan of a 64 KiB photo in 16 KiB chunks.
func ingestChunks(owner model.NodeID, seq uint32, deg float64) []wire.Chunk {
	s := &session{wp: wire.Params{ChunkSize: ingestShapeChunk}}
	photo := viewFrom(owner, seq, deg)
	return s.chunkPlan(photo, payloadFor(nil, photo.ID, ingestShapePayload))
}

// receiveScripted runs one receiveChunks leg on p over the encoded msgs,
// all of them readable at once (batched) or one frame per read. It
// returns how many acks the receiver wrote and the leg's error.
func receiveScripted(t *testing.T, p *Peer, want []model.PhotoID, msgs []wire.Message, batched bool) (int, error) {
	t.Helper()
	var frames [][]byte
	for _, m := range msgs {
		var b bytes.Buffer
		if err := wire.Write(&b, m); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b.Bytes())
	}
	conn := &scriptedConn{Reader: &frameReader{frames: frames}}
	if batched {
		conn.Reader = bytes.NewReader(bytes.Join(frames, nil))
	}
	s := &session{p: p, conn: conn, remote: 3, remoteKnown: true,
		wp: wire.Params{Resume: true, ChunkSize: ingestShapeChunk, Window: wire.DefaultWindow}}
	_, err := s.receiveChunks(want)
	return conn.acks, err
}

// receivePerChunk is the reference the batched receiver must match: the
// receive path as it journaled before batching — each chunk checked in
// stream order, appended to the journal on its own when the store lacks
// it, then unioned.
func receivePerChunk(t *testing.T, p *Peer, want []model.PhotoID, msgs []wire.Message) (int, error) {
	t.Helper()
	s := &session{p: p, remote: 3, remoteKnown: true,
		wp: wire.Params{Resume: true, ChunkSize: ingestShapeChunk, Window: wire.DefaultWindow}}
	wantSet := make(map[model.PhotoID]bool)
	for _, id := range want {
		wantSet[id] = true
	}
	seen := make(map[guard.ChunkKey]bool)
	acks := 0
	for _, msg := range msgs {
		c, ok := msg.(wire.Chunk)
		if !ok {
			return acks, nil
		}
		if p.guard != nil {
			if v := guard.CheckChunk(c, wantSet, ingestShapeChunk); v != nil {
				return acks, s.violation(v)
			}
			key := guard.ChunkKey{ID: c.Photo.ID, Index: c.Index}
			if seen[key] {
				return acks, s.violationf(guard.ReasonReplay, "duplicate chunk")
			}
			seen[key] = true
		}
		p.mu.Lock()
		if !p.frags.Has(c.Photo.ID, c.Index) {
			if err := p.jnl.Append(recFragment, wire.AppendChunk([]byte{fragPut}, c)); err != nil {
				t.Fatal(err)
			}
		}
		_, _ = p.frags.Add(c)
		p.mu.Unlock()
		acks++
	}
	return acks, nil
}

// TestBatchedFragmentJournalMatchesPerChunk is the differential test for
// group commit: the same chunk streams go through the batched receiver
// (every frame readable at once), the same receiver fed one frame per read
// (one chunk per journal batch), and the one-Append-per-chunk reference.
// The three write-ahead logs must be byte-identical, so must the number of
// acks, and a reopen must recover exactly the fragments the live store
// holds.
func TestBatchedFragmentJournalMatchesPerChunk(t *testing.T) {
	a := ingestChunks(3, 0, 0)
	b := ingestChunks(3, 1, 90)
	stray := ingestChunks(4, 0, 45)
	ack := wire.Ack{IDs: []model.PhotoID{a[0].Photo.ID, b[0].Photo.ID}}
	want := []model.PhotoID{a[0].Photo.ID, b[0].Photo.ID}
	msgs := func(cs ...wire.Chunk) []wire.Message {
		out := make([]wire.Message, 0, len(cs)+1)
		for _, c := range cs {
			out = append(out, c)
		}
		return append(out, ack)
	}
	type leg struct {
		msgs      []wire.Message
		violation bool
	}
	cases := []struct {
		name  string
		guard bool
		legs  []leg
	}{
		{"clean window", true, []leg{{msgs: msgs(a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])}}},
		{"unrequested photo mid-batch", true, []leg{{msgs: msgs(a[0], a[1], a[2], stray[0], a[3], b[0]), violation: true}}},
		{"duplicate mid-batch under guard", true, []leg{{msgs: msgs(a[0], a[1], b[0], a[1], a[2]), violation: true}}},
		{"duplicate without guard", false, []leg{{msgs: msgs(a[0], a[1], a[1], a[2], a[3], a[2], b[0], b[1])}}},
		{"resumed photo re-sent", true, []leg{
			{msgs: msgs(a[0], a[1], b[2])},
			{msgs: msgs(a[1], a[2], a[3], b[0], b[1], b[2], b[3])},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var logs [3][]byte
			var acks [3][]int
			for variant := range logs {
				dir := t.TempDir()
				opts := []Option{WithSeed(1), fixedClock(1000),
					WithTransfer(TransferConfig{ChunkSize: ingestShapeChunk, Resume: true})}
				if tc.guard {
					opts = append(opts, WithGuard(guard.Config{}))
				}
				p, err := Open(dir, model.CommandCenter, poiMap(), 0, opts...)
				if err != nil {
					t.Fatal(err)
				}
				for i, l := range tc.legs {
					var n int
					switch variant {
					case 0:
						n, err = receiveScripted(t, p, want, l.msgs, true)
					case 1:
						n, err = receiveScripted(t, p, want, l.msgs, false)
					default:
						n, err = receivePerChunk(t, p, want, l.msgs)
					}
					if got := errors.Is(err, ErrProtocolViolation); got != l.violation || (err != nil && !got) {
						t.Fatalf("variant %d leg %d: err = %v, want violation=%v", variant, i, err, l.violation)
					}
					acks[variant] = append(acks[variant], n)
				}
				live := p.frags.Held()
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				if logs[variant], err = os.ReadFile(filepath.Join(dir, "wal.log")); err != nil {
					t.Fatal(err)
				}
				r, err := Open(dir, model.CommandCenter, poiMap(), 0, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if got := r.frags.Held(); !reflect.DeepEqual(got, live) {
					t.Fatalf("variant %d: recovered %d fragments, live store held %d", variant, len(got), len(live))
				}
				_ = r.Close()
			}
			if len(logs[0]) == 0 {
				t.Fatal("stream journaled nothing")
			}
			for v := 1; v < len(logs); v++ {
				if !bytes.Equal(logs[0], logs[v]) {
					t.Fatalf("batched log (%d bytes) differs from variant %d's (%d bytes)", len(logs[0]), v, len(logs[v]))
				}
				if !reflect.DeepEqual(acks[0], acks[v]) {
					t.Fatalf("batched receiver acked %v, variant %d acked %v", acks[0], v, acks[v])
				}
			}
		})
	}
}

// TestBatchedReceiveSharesFsyncs pins the point of group commit: a window
// of eight fresh chunks that has fully arrived is journaled with two
// fsyncs, not eight — one for the chunk that shows the stream is
// journaled (it is read before the read-ahead buffer is taken), one for
// the seven behind it.
func TestBatchedReceiveSharesFsyncs(t *testing.T) {
	a := ingestChunks(3, 0, 0)
	b := ingestChunks(3, 1, 90)
	var syncs int
	p, err := Open(t.TempDir(), model.CommandCenter, poiMap(), 0, WithSeed(1), fixedClock(1000),
		WithJournalFS(syncCounter{syncs: &syncs}),
		WithTransfer(TransferConfig{ChunkSize: ingestShapeChunk, Resume: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	stream := []wire.Message{a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3], wire.Ack{}}
	before := syncs
	if acks, err := receiveScripted(t, p, []model.PhotoID{a[0].Photo.ID, b[0].Photo.ID}, stream, true); err != nil || acks != 8 {
		t.Fatalf("receive: err %v, %d acks", err, acks)
	}
	if got := syncs - before; got != 2 {
		t.Fatalf("a fully arrived window of 8 chunks took %d fsyncs, want 2", got)
	}
}

// syncCounter is the real filesystem with a count of file syncs.
type syncCounter struct {
	journal.OSFS
	syncs *int
}

type syncCountingFile struct {
	journal.File
	syncs *int
}

func (c syncCounter) OpenFile(name string, flag int, perm fs.FileMode) (journal.File, error) {
	f, err := c.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncCountingFile{File: f, syncs: c.syncs}, nil
}

func (f syncCountingFile) Sync() error {
	*f.syncs++
	return f.File.Sync()
}

// TestReadAheadKeepsBytesPastTheStream: a remote that sends its next frame
// before its turn leaves bytes in the read-ahead buffer after the chunk
// stream's Ack. They must reach the contact's next read, exactly as they
// would have without the buffer.
func TestReadAheadKeepsBytesPastTheStream(t *testing.T) {
	a := ingestChunks(3, 0, 0)
	p, err := Open(t.TempDir(), model.CommandCenter, poiMap(), 0, WithSeed(1), fixedClock(1000),
		WithTransfer(TransferConfig{ChunkSize: ingestShapeChunk, Resume: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	var stream bytes.Buffer
	for _, m := range []wire.Message{a[0], a[1], a[2], a[3], wire.Ack{}, wire.Bye{}} {
		if err := wire.Write(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	s := &session{p: p, conn: &scriptedConn{Reader: &stream},
		wp: wire.Params{Resume: true, ChunkSize: ingestShapeChunk, Window: wire.DefaultWindow}}
	got, err := s.receiveChunks([]model.PhotoID{a[0].Photo.ID})
	if err != nil || len(got) != 1 {
		t.Fatalf("receive: %d photos, err %v", len(got), err)
	}
	if _, err := readIn[wire.Bye](s); err != nil {
		t.Fatalf("the frame sent past the stream was lost: %v", err)
	}
}
