package peer

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photodtn/internal/faults"
	"photodtn/internal/model"
	"photodtn/internal/wire"
)

const kib = int64(1) << 10

// chunked returns a transfer config small enough that one synthetic photo
// payload spans many chunks.
func chunked(resume bool) TransferConfig {
	return TransferConfig{ChunkSize: 32 << 10, Resume: resume}
}

// faultContact runs one contact with the initiator's side of the pipe routed
// through rw (a fault-injecting wrapper over ca). Each side closes its own
// pipe end so the survivor of a mid-contact death unblocks promptly.
func faultContact(a, b *Peer, rw io.ReadWriter, ca, cb net.Conn) (errA, errB error) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		errA = a.ContactConn(rw, true)
		_ = ca.Close()
	}()
	go func() {
		defer wg.Done()
		errB = b.ContactConn(cb, false)
		_ = cb.Close()
	}()
	wg.Wait()
	return errA, errB
}

// killContact runs a contact whose initiator link dies after cut bytes —
// mid-frame, so the receiver sees a torn chunk, not a clean close between
// frames.
func killContact(a, b *Peer, cut int64) (errA, errB error) {
	ca, cb := net.Pipe()
	kt := faults.NewByteKillTransport(ca, cut)
	return faultContact(a, b, &faultConn{rw: kt, conn: ca}, ca, cb)
}

// TestChunkedExchange: two peers with multi-chunk payloads complete a
// reallocation over the chunk path and account the frames.
func TestChunkedExchange(t *testing.T) {
	m := poiMap()
	a := newTestPeer(t, 1, m, 8*mb, WithPayloadBytes(int(96*kib)), WithTransfer(chunked(true)))
	b := newTestPeer(t, 2, m, 8*mb, WithPayloadBytes(int(96*kib)), WithTransfer(chunked(true)))
	if err := a.AddPhoto(viewFrom(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPhoto(viewFrom(2, 1, 90)); err != nil {
		t.Fatal(err)
	}
	contact(t, a, b)
	for _, p := range []*Peer{a, b} {
		if got := len(p.Photos()); got != 2 {
			t.Fatalf("peer %v holds %d photos, want 2", p.ID(), got)
		}
		st := p.TransferStats()
		// 96 KiB across 32 KiB chunks = 3 chunks each way.
		if st.ChunksSent != 3 || st.ChunksReceived != 3 {
			t.Fatalf("peer %v chunk counts = %+v, want 3 sent / 3 received", p.ID(), st)
		}
		if st.WastedBytes != 0 || st.Partials != 0 {
			t.Fatalf("clean exchange left waste: %+v", st)
		}
	}
}

// TestBudgetTruncationResumesAcrossContacts: a per-contact byte budget cuts
// the upload mid-photo without any fault; the surviving prefix is offered
// back next contact, and the photo completes after three budget slices
// having crossed the wire exactly once.
func TestBudgetTruncationResumesAcrossContacts(t *testing.T) {
	m := poiMap()
	cfg := chunked(true)
	cfg.BudgetBytes = 100 * kib // 3 of the 8 chunks per contact
	cc := newTestPeer(t, model.CommandCenter, m, 0, WithTransfer(chunked(true)))
	h := newTestPeer(t, 3, m, 64*mb, WithPayloadBytes(int(256*kib)), WithTransfer(cfg))
	ph := viewFrom(3, 0, 0)
	if err := h.AddPhoto(ph); err != nil {
		t.Fatal(err)
	}
	for round := 1; ; round++ {
		if round > 3 {
			t.Fatalf("photo not delivered after 3 budgeted contacts: cc stats %+v", cc.TransferStats())
		}
		contact(t, h, cc)
		if cc.Photos().Contains(ph.ID) {
			if round != 3 {
				t.Fatalf("delivered after %d contacts, want 3 (budget miscounted)", round)
			}
			break
		}
	}
	hst := h.TransferStats()
	if hst.ChunksSent != 8 {
		t.Fatalf("holder sent %d chunks, want 8 (each chunk exactly once)", hst.ChunksSent)
	}
	// Rounds two and three skipped the 3+3 chunks already held remotely.
	if hst.ChunksResumed != 9 || hst.ResumedBytes != 9*32*kib {
		t.Fatalf("resume accounting = %+v, want 9 chunks / %d bytes skipped", hst, 9*32*kib)
	}
	cst := cc.TransferStats()
	if cst.PhotosResumed != 1 {
		t.Fatalf("command center resumed %d photos, want 1", cst.PhotosResumed)
	}
	if cst.Partials != 0 || cst.FragmentBytes != 0 {
		t.Fatalf("completed photo still tracked as partial: %+v", cst)
	}
}

// TestMidChunkKillResumesNextContact is the fault-sweep proof for the live
// path: the uploader's link dies mid-chunk at a sweep of byte offsets, and
// every run must converge — the interrupted photo completes via resume in
// the next contact with a verified checksum and is delivered exactly once.
func TestMidChunkKillResumesNextContact(t *testing.T) {
	m := poiMap()
	sawResume := false
	// The chunk stream is ~263 KiB behind a short handshake; the sweep cuts
	// before the first chunk, inside early/middle/late chunks, and inside
	// the final one.
	for _, cut := range []int64{600, 40 * kib, 100 * kib, 180 * kib, 250 * kib} {
		cc := newTestPeer(t, model.CommandCenter, m, 0, WithTransfer(chunked(true)))
		h := newTestPeer(t, 3, m, 64*mb, WithPayloadBytes(int(256*kib)), WithTransfer(chunked(true)))
		ph := viewFrom(3, 0, 0)
		if err := h.AddPhoto(ph); err != nil {
			t.Fatal(err)
		}
		if errH, errCC := killContact(h, cc, cut); errH == nil && errCC == nil {
			t.Fatalf("cut %d: contact survived a killed link", cut)
		}
		if cc.Photos().Contains(ph.ID) {
			t.Fatalf("cut %d: photo delivered on the killed contact", cut)
		}
		prior := cc.TransferStats().Partials
		contact(t, h, cc)
		if !cc.Photos().Contains(ph.ID) {
			t.Fatalf("cut %d: photo not delivered by the recovery contact", cut)
		}
		if n := len(cc.Photos()); n != 1 {
			t.Fatalf("cut %d: command center holds %d photos, want exactly 1", cut, n)
		}
		cst := cc.TransferStats()
		if prior > 0 {
			sawResume = true
			if cst.PhotosResumed != 1 {
				t.Fatalf("cut %d: partial held but PhotosResumed = %d", cut, cst.PhotosResumed)
			}
		}
		if cst.Partials != 0 || cst.FragmentBytes != 0 {
			t.Fatalf("cut %d: delivered photo left partial state: %+v", cut, cst)
		}
		// A checksum mismatch would have dropped the partial and counted its
		// bytes wasted, so zero waste certifies the resumed payload verified.
		if cst.WastedBytes != 0 {
			t.Fatalf("cut %d: resumed delivery wasted %d bytes", cut, cst.WastedBytes)
		}
	}
	if !sawResume {
		t.Fatal("no cut in the sweep left a resumable partial — offsets miss the chunk stream")
	}
}

// TestCrossHolderResume: a transfer interrupted from one holder completes
// from a different holder of the same photo — the deterministic per-photo
// payload makes the fragments interchangeable.
func TestCrossHolderResume(t *testing.T) {
	m := poiMap()
	cc := newTestPeer(t, model.CommandCenter, m, 0, WithTransfer(chunked(true)))
	h1 := newTestPeer(t, 3, m, 64*mb, WithPayloadBytes(int(256*kib)), WithTransfer(chunked(true)))
	h2 := newTestPeer(t, 4, m, 64*mb, WithPayloadBytes(int(256*kib)), WithTransfer(chunked(true)))
	ph := viewFrom(3, 0, 0)
	if err := h1.AddPhoto(ph); err != nil {
		t.Fatal(err)
	}
	if err := h2.AddPhoto(ph); err != nil {
		t.Fatal(err)
	}
	if errH, errCC := killContact(h1, cc, 120*kib); errH == nil && errCC == nil {
		t.Fatal("contact survived a killed link")
	}
	if cc.TransferStats().Partials == 0 {
		t.Fatal("killed contact left no partial to resume")
	}
	contact(t, h2, cc)
	if !cc.Photos().Contains(ph.ID) {
		t.Fatal("photo not delivered by the second holder")
	}
	cst := cc.TransferStats()
	if cst.PhotosResumed != 1 {
		t.Fatalf("PhotosResumed = %d, want 1 (cross-holder resume)", cst.PhotosResumed)
	}
	if cst.WastedBytes != 0 {
		t.Fatalf("cross-holder resume wasted %d bytes — payloads not bit-identical", cst.WastedBytes)
	}
	if h2.TransferStats().ChunksResumed == 0 {
		t.Fatal("second holder re-sent every chunk — offer ignored")
	}
}

// TestResumeBeatsDiscardBaseline: after an identical mid-chunk death,
// resume-on must strictly beat the discard-everything baseline on
// both wasted bytes and chunks re-sent.
func TestResumeBeatsDiscardBaseline(t *testing.T) {
	m := poiMap()
	run := func(resume bool) (wasted, sent int64) {
		cc := newTestPeer(t, model.CommandCenter, m, 0, WithTransfer(chunked(resume)))
		h := newTestPeer(t, 3, m, 64*mb, WithPayloadBytes(int(256*kib)), WithTransfer(chunked(resume)))
		ph := viewFrom(3, 0, 0)
		if err := h.AddPhoto(ph); err != nil {
			t.Fatal(err)
		}
		if errH, errCC := killContact(h, cc, 150*kib); errH == nil && errCC == nil {
			t.Fatalf("resume=%v: contact survived a killed link", resume)
		}
		contact(t, h, cc)
		if !cc.Photos().Contains(ph.ID) || len(cc.Photos()) != 1 {
			t.Fatalf("resume=%v: photo not delivered exactly once", resume)
		}
		return cc.TransferStats().WastedBytes, h.TransferStats().ChunksSent
	}
	resumeWaste, resumeSent := run(true)
	discardWaste, discardSent := run(false)
	if resumeWaste >= discardWaste {
		t.Fatalf("resume wasted %d bytes, discard baseline %d — resume must waste strictly less",
			resumeWaste, discardWaste)
	}
	if resumeSent >= discardSent {
		t.Fatalf("resume sent %d chunks, discard baseline %d — resume must re-send strictly fewer",
			resumeSent, discardSent)
	}
}

// TestResumeUnderFrameLoss: a link losing ≥30% of the uploader's frames
// kills the contact mid-stream; the chunks that landed resume the photo on
// a later clean contact. The loss schedule is seed-driven — the sweep stops
// at the first seed whose run makes partial progress before dying.
func TestResumeUnderFrameLoss(t *testing.T) {
	m := poiMap()
	for seed := int64(1); seed <= 25; seed++ {
		cc := newTestPeer(t, model.CommandCenter, m, 0,
			WithTransfer(TransferConfig{ChunkSize: 16 << 10, Resume: true}),
			WithFrameTimeout(250*time.Millisecond))
		h := newTestPeer(t, 3, m, 64*mb, WithPayloadBytes(int(256*kib)),
			WithTransfer(TransferConfig{ChunkSize: 16 << 10, Resume: true}),
			WithFrameTimeout(250*time.Millisecond))
		ph := viewFrom(3, 0, 0)
		if err := h.AddPhoto(ph); err != nil {
			t.Fatal(err)
		}
		ca, cb := net.Pipe()
		lossy := faults.NewTransport(ca, 0.35, 0, seed)
		errH, errCC := faultContact(h, cc, &faultConn{rw: lossy, conn: ca}, ca, cb)
		if errH == nil && errCC == nil {
			continue // this seed dropped nothing that mattered
		}
		if cc.TransferStats().Partials == 0 {
			continue // died before any chunk landed
		}
		contact(t, h, cc)
		if !cc.Photos().Contains(ph.ID) || len(cc.Photos()) != 1 {
			t.Fatalf("seed %d: photo not delivered exactly once after lossy contact", seed)
		}
		cst := cc.TransferStats()
		if cst.PhotosResumed != 1 {
			t.Fatalf("seed %d: PhotosResumed = %d, want 1", seed, cst.PhotosResumed)
		}
		if cst.WastedBytes != 0 {
			t.Fatalf("seed %d: resumed delivery wasted %d bytes", seed, cst.WastedBytes)
		}
		return
	}
	t.Fatal("no seed produced a partially-progressed lossy contact")
}

// TestChaosMidChunkKillSweep extends the crash-recovery chaos harness to
// the chunk stream: a durable command center's link dies mid-chunk, the
// process restarts (fragments recovered from the journal — or from a v2
// snapshot when the run checkpoints first), and the recovery contact must
// deliver the photo exactly once, bit-verified, converging to the fault-free
// reference state.
func TestChaosMidChunkKillSweep(t *testing.T) {
	m := poiMap()
	ccOpts := func() []Option {
		return []Option{WithSeed(1), fixedClock(1000), WithTransfer(chunked(true))}
	}
	newHolder := func() *Peer {
		h := New(3, m, 64*mb, WithSeed(2), fixedClock(1000),
			WithPayloadBytes(int(256*kib)), WithTransfer(chunked(true)))
		if err := h.AddPhoto(viewFrom(3, 0, 0)); err != nil {
			t.Fatal(err)
		}
		return h
	}
	// Fault-free reference: the digest every chaos run must converge to.
	ref := New(model.CommandCenter, m, 0, ccOpts()...)
	contact(t, newHolder(), ref)
	wantDigest := ref.StateDigest()
	phID := ref.Photos()[0].ID

	sawReplay := false
	for _, checkpoint := range []bool{false, true} {
		for _, cut := range []int64{600, 60 * kib, 150 * kib, 240 * kib} {
			dir := t.TempDir()
			h := newHolder()
			cc, err := Open(dir, model.CommandCenter, m, 0, ccOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			if errH, errCC := killContact(h, cc, cut); errH == nil && errCC == nil {
				t.Fatalf("cut %d: contact survived a killed link", cut)
			}
			partials := cc.TransferStats().Partials
			if checkpoint {
				// Fold the fragment journal into a v2 snapshot before dying.
				if err := cc.Checkpoint(); err != nil {
					t.Fatalf("cut %d: checkpoint: %v", cut, err)
				}
			}
			if err := cc.Close(); err != nil {
				t.Fatalf("cut %d: close: %v", cut, err)
			}

			cc2, err := Open(dir, model.CommandCenter, m, 0, ccOpts()...)
			if err != nil {
				t.Fatalf("cut %d: recovery: %v", cut, err)
			}
			st2 := cc2.TransferStats()
			if st2.Partials != partials {
				t.Fatalf("cut %d (checkpoint=%v): recovered %d partials, lost from %d",
					cut, checkpoint, st2.Partials, partials)
			}
			if partials > 0 {
				sawReplay = true
			}
			contact(t, h, cc2)
			if !cc2.Photos().Contains(phID) || len(cc2.Photos()) != 1 {
				t.Fatalf("cut %d: recovered command center did not deliver exactly once", cut)
			}
			if partials > 0 && cc2.TransferStats().PhotosResumed != 1 {
				t.Fatalf("cut %d: recovered partial not counted as a resume", cut)
			}
			if cc2.TransferStats().WastedBytes != 0 {
				t.Fatalf("cut %d: recovered fragments failed verification: %+v", cut, cc2.TransferStats())
			}
			if got := cc2.StateDigest(); got != wantDigest {
				t.Fatalf("cut %d (checkpoint=%v): digest %x, want reference %x", cut, checkpoint, got, wantDigest)
			}
			if err := cc2.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !sawReplay {
		t.Fatal("no cut left durable fragments to recover — sweep misses the chunk stream")
	}
}

// TestTinyChunkSizeRefused pins the chunk-size floor at the peer: a command
// center advertising a 1-byte chunk size — its preference set past
// TransferConfig.normalize, as a hostile build would — must not make a
// gateway frame its uploads a byte at a time. The gateway refuses the hello
// with ErrProtocol and sends no chunk; an honest config below the floor is
// raised to it instead.
func TestTinyChunkSizeRefused(t *testing.T) {
	m := poiMap()
	payload := WithPayloadBytes(int(64 * kib))
	gw := newTestPeer(t, 1, m, 32*mb, payload)
	cc := newTestPeer(t, model.CommandCenter, m, 0, payload)
	cc.transfer.ChunkSize = 1
	for i := uint32(0); i < 4; i++ {
		if err := gw.AddPhoto(viewFrom(1, i, float64(i)*90)); err != nil {
			t.Fatal(err)
		}
	}
	_, errGW := tryContact(cc, gw)
	if !errors.Is(errGW, ErrProtocol) || !errors.Is(errGW, wire.ErrHandshake) {
		t.Fatalf("gateway err = %v, want ErrProtocol wrapping wire.ErrHandshake", errGW)
	}
	if n := gw.TransferStats().ChunksSent; n != 0 {
		t.Fatalf("gateway sent %d chunks", n)
	}
	if n := len(gw.Photos()); n != 4 {
		t.Fatalf("gateway holds %d photos after the refused contact, want 4", n)
	}
	if got := (TransferConfig{ChunkSize: 1}).normalize().ChunkSize; got != wire.MinChunkSize {
		t.Fatalf("normalized chunk size %d, want wire.MinChunkSize", got)
	}
}

// errWriteCut is the failure a writeCutConn reports.
var errWriteCut = errors.New("test: write past the cut")

// writeCutConn fails every write that would take its total past cut —
// without closing the link, so the remote stays up and silent — and
// counts the reads in progress on it.
type writeCutConn struct {
	net.Conn
	cut     int
	written int
	reading atomic.Int32
	reads   atomic.Int32
}

func (c *writeCutConn) Write(p []byte) (int, error) {
	if c.written+len(p) > c.cut {
		return 0, errWriteCut
	}
	c.written += len(p)
	return c.Conn.Write(p)
}

func (c *writeCutConn) Read(p []byte) (int, error) {
	c.reading.Add(1)
	defer c.reading.Add(-1)
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestSendChunksJoinsAckReaderOnWriteFailure: when a chunk write fails,
// sendChunks must not return while its ack reader still reads the
// transport. The uploader's link fails writes partway through the chunk
// stream while the command center waits for the next chunk, so the
// reader would block on an ack that never comes.
func TestSendChunksJoinsAckReaderOnWriteFailure(t *testing.T) {
	// Find where the chunk stream starts in a clean upload.
	gw, _ := ingestGateway(t)
	cc := New(model.CommandCenter, poiMap(), 0, ingestCCOpts()...)
	ca, cb := net.Pipe()
	var sizer writeSizer
	if errGW, errCC := faultContact(gw, cc, &sizedConn{Conn: ca, sizer: &sizer}, ca, cb); errGW != nil || errCC != nil {
		t.Fatalf("clean upload: gateway %v, command center %v", errGW, errCC)
	}
	if sizer.firstChunk == 0 {
		t.Fatal("clean upload wrote no chunk")
	}

	for _, extra := range []int{0, sizer.chunkFrame / 2, sizer.chunkFrame + 1, 3 * sizer.chunkFrame} {
		gw, _ := ingestGateway(t)
		cc := New(model.CommandCenter, poiMap(), 0, ingestCCOpts()...)
		ca, cb := net.Pipe()
		conn := &writeCutConn{Conn: ca, cut: sizer.firstChunk + extra}
		ccDone := make(chan error, 1)
		go func() { ccDone <- cc.ContactConn(cb, false) }()
		err := gw.ContactConn(conn, true)
		if !errors.Is(err, errWriteCut) {
			t.Fatalf("cut +%d: gateway err = %v, want the write failure", extra, err)
		}
		if n := conn.reading.Load(); n != 0 {
			t.Fatalf("cut +%d: %d reads still in progress after the contact returned", extra, n)
		}
		reads := conn.reads.Load()
		time.Sleep(20 * time.Millisecond)
		if n := conn.reads.Load(); n != reads {
			t.Fatalf("cut +%d: %d reads started after the contact returned", extra, n-reads)
		}
		_ = ca.Close()
		_ = cb.Close()
		<-ccDone
	}
}

// writeSizer records, for a clean upload, how many bytes precede the first
// chunk frame and how long a chunk frame is.
type writeSizer struct {
	written    int
	firstChunk int
	chunkFrame int
}

// sizedConn feeds a writeSizer from the frames written through it.
type sizedConn struct {
	net.Conn
	sizer *writeSizer
}

func (c *sizedConn) Write(p []byte) (int, error) {
	if msg, err := wire.Read(bytes.NewReader(p)); err == nil {
		if _, ok := msg.(wire.Chunk); ok && c.sizer.firstChunk == 0 {
			c.sizer.firstChunk, c.sizer.chunkFrame = c.sizer.written, len(p)
		}
	}
	c.sizer.written += len(p)
	return c.Conn.Write(p)
}
