package peer

import (
	"context"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"photodtn/internal/faults"
	"photodtn/internal/model"
	"photodtn/internal/wire"
)

// waitErr waits for a contact goroutine with a hang guard: the whole point
// of the deadline work is that these contacts terminate on their own.
func waitErr(t *testing.T, ch <-chan error, within time.Duration) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(within):
		t.Fatalf("contact still hanging after %v", within)
		return nil
	}
}

func photoIDs(p *Peer) []model.PhotoID { return p.Photos().IDs() }

func sameIDs(a, b []model.PhotoID) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[model.PhotoID]bool, len(a))
	for _, id := range a {
		set[id] = true
	}
	for _, id := range b {
		if !set[id] {
			return false
		}
	}
	return true
}

// TestStalledRemoteTimesOut: a remote that accepts the connection and then
// goes silent must end the contact within the configured frame timeout, not
// hang the radio forever.
func TestStalledRemoteTimesOut(t *testing.T) {
	a := newTestPeer(t, 1, poiMap(), 8*mb, WithFrameTimeout(100*time.Millisecond))
	if err := a.AddPhoto(viewFrom(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	before := photoIDs(a)

	ca, cb := net.Pipe()
	defer func() { _ = ca.Close(); _ = cb.Close() }()
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- a.ContactConn(ca, true) }()
	// The remote reads the hello and then stalls without replying.
	if _, err := wire.Read(cb); err != nil {
		t.Fatal(err)
	}
	err := waitErr(t, done, 5*time.Second)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("contact took %v to time out with a 100ms frame timeout", elapsed)
	}
	if !sameIDs(photoIDs(a), before) {
		t.Fatalf("storage changed across an aborted contact: %v", photoIDs(a))
	}
}

// TestStalledRemoteNeverReads: the write path is bounded too — a remote
// that never drains the pipe stalls our hello write.
func TestStalledRemoteNeverReads(t *testing.T) {
	a := newTestPeer(t, 1, poiMap(), 8*mb, WithFrameTimeout(100*time.Millisecond))
	ca, cb := net.Pipe()
	defer func() { _ = ca.Close(); _ = cb.Close() }()
	done := make(chan error, 1)
	go func() { done <- a.ContactConn(ca, true) }()
	if err := waitErr(t, done, 5*time.Second); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestContactDeadline: with per-frame deadlines off, the absolute contact
// timeout still bounds the contact (the live equivalent of nodes moving
// out of range).
func TestContactDeadline(t *testing.T) {
	a := newTestPeer(t, 1, poiMap(), 8*mb,
		WithFrameTimeout(0), WithContactTimeout(100*time.Millisecond))
	ca, cb := net.Pipe()
	defer func() { _ = ca.Close(); _ = cb.Close() }()
	done := make(chan error, 1)
	go func() { done <- a.ContactConn(ca, true) }()
	if _, err := wire.Read(cb); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, done, 5*time.Second); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestCorruptingRemoteAbortsContact: frames mangled in flight (simulated
// with the faults transport at corruption probability 1) fail the wire
// checksum and end the contact cleanly.
func TestCorruptingRemoteAbortsContact(t *testing.T) {
	m := poiMap()
	a := newTestPeer(t, 1, m, 8*mb, WithFrameTimeout(time.Second))
	b := newTestPeer(t, 2, m, 8*mb, WithFrameTimeout(time.Second))
	if err := a.AddPhoto(viewFrom(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	beforeA, beforeB := photoIDs(a), photoIDs(b)

	ca, cb := net.Pipe()
	tr := faults.NewTransport(cb, 0, 1, 42) // corrupt every frame b sends
	errA := make(chan error, 1)
	errB := make(chan error, 1)
	go func() {
		errA <- a.ContactConn(ca, true)
		_ = ca.Close()
	}()
	go func() {
		errB <- b.ContactConn(tr, false)
		_ = cb.Close()
	}()
	if err := waitErr(t, errA, 5*time.Second); !errors.Is(err, wire.ErrChecksum) {
		t.Fatalf("honest side err = %v, want ErrChecksum", err)
	}
	if err := waitErr(t, errB, 5*time.Second); err == nil {
		t.Fatal("corrupting side finished the contact cleanly")
	}
	if tr.Corrupted() == 0 {
		t.Fatal("transport corrupted nothing")
	}
	if !sameIDs(photoIDs(a), beforeA) || !sameIDs(photoIDs(b), beforeB) {
		t.Fatal("storage changed across a checksum-aborted contact")
	}
}

// corruptAfter passes through the first n writes untouched, then flips the
// final byte (the CRC trailer) of every later frame — corruption that
// strikes mid-transfer, after the handshake succeeded.
type corruptAfter struct {
	rw io.ReadWriter
	n  int
}

func (c *corruptAfter) Read(b []byte) (int, error) { return c.rw.Read(b) }

func (c *corruptAfter) Write(b []byte) (int, error) {
	if c.n > 0 {
		c.n--
		return c.rw.Write(b)
	}
	bad := append([]byte(nil), b...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := c.rw.Write(bad); err != nil {
		return 0, err
	}
	return len(b), nil
}

// TestAbortMidTransferLeavesPeersConsistent is the live-path counterpart of
// the simulator's §III-D test: a contact that dies during the photo
// transfer discards the unfinished exchange on both sides, and the peers
// are healthy enough to complete a later contact normally.
func TestAbortMidTransferLeavesPeersConsistent(t *testing.T) {
	m := poiMap()
	a := newTestPeer(t, 1, m, 8*mb, WithFrameTimeout(time.Second))
	b := newTestPeer(t, 2, m, 8*mb, WithFrameTimeout(time.Second))
	east := viewFrom(1, 0, 0)
	north := viewFrom(2, 0, 90)
	if err := a.AddPhoto(east); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPhoto(north); err != nil {
		t.Fatal(err)
	}
	beforeA, beforeB := photoIDs(a), photoIDs(b)

	// b's hello ack, metadata, photo request and resume offer pass; its
	// ack of a's first chunk is corrupted, so a dies mid-stream.
	ca, cb := net.Pipe()
	tr := &corruptAfter{rw: cb, n: 4}
	errA := make(chan error, 1)
	errB := make(chan error, 1)
	go func() {
		errA <- a.ContactConn(ca, true)
		_ = ca.Close()
	}()
	go func() {
		errB <- b.ContactConn(tr, false)
		_ = cb.Close()
	}()
	if err := waitErr(t, errA, 5*time.Second); !errors.Is(err, wire.ErrChecksum) {
		t.Fatalf("initiator err = %v, want ErrChecksum mid-transfer", err)
	}
	if err := waitErr(t, errB, 5*time.Second); err == nil {
		t.Fatal("corrupting side finished cleanly")
	}

	// Unfinished photos are discarded: both collections and their byte
	// accounting are exactly as before the contact.
	for _, tc := range []struct {
		p      *Peer
		before []model.PhotoID
	}{{a, beforeA}, {b, beforeB}} {
		if !sameIDs(photoIDs(tc.p), tc.before) {
			t.Fatalf("peer %v collection changed: %v -> %v",
				tc.p.ID(), tc.before, photoIDs(tc.p))
		}
		var sum int64
		for _, photo := range tc.p.Photos() {
			sum += photo.Size
		}
		tc.p.mu.Lock()
		used := tc.p.store.Used()
		tc.p.mu.Unlock()
		if used != sum {
			t.Fatalf("peer %v byte accounting drifted: used %d, photos sum %d",
				tc.p.ID(), used, sum)
		}
	}

	// The decisive consistency check: a clean contact afterwards works and
	// converges both peers on the shared plan.
	contact(t, a, b)
	for _, p := range []*Peer{a, b} {
		if len(p.Photos()) != 2 {
			t.Fatalf("peer %v holds %d photos after the recovery contact", p.ID(), len(p.Photos()))
		}
	}
}

// TestContactRetriesTransientDialFailures: ECONNREFUSED-style failures are
// retried with exponential backoff until the dial lands.
func TestContactRetriesTransientDialFailures(t *testing.T) {
	m := poiMap()
	cc := newTestPeer(t, model.CommandCenter, m, 0)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() { _ = cc.Serve(l) }()

	var attempts int
	refused := &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	n := newTestPeer(t, 1, m, 20*mb,
		WithRetry(3, 10*time.Millisecond, 40*time.Millisecond),
		WithContextDialer(func(_ context.Context, addr string) (net.Conn, error) {
			attempts++
			if attempts < 3 {
				return nil, refused
			}
			return net.Dial("tcp", addr)
		}))
	var slept []time.Duration
	n.sleep = func(d time.Duration) { slept = append(slept, d) }
	if err := n.AddPhoto(viewFrom(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := n.Contact(l.Addr().String()); err != nil {
		t.Fatalf("contact failed despite retries: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("backoff = %v, want %v", slept, want)
	}
	if len(cc.Photos()) != 1 {
		t.Fatalf("CC received %d photos", len(cc.Photos()))
	}
}

// TestContactDoesNotRetryPermanentErrors: a non-transient failure returns
// immediately, with no backoff sleeps.
func TestContactDoesNotRetryPermanentErrors(t *testing.T) {
	permanent := errors.New("no route to host policy")
	var attempts int
	n := newTestPeer(t, 1, poiMap(), 4*mb,
		WithRetry(5, time.Millisecond, time.Second),
		WithContextDialer(func(context.Context, string) (net.Conn, error) {
			attempts++
			return nil, permanent
		}))
	n.sleep = func(time.Duration) { t.Fatal("slept before a permanent error") }
	if err := n.Contact("anywhere:1"); !errors.Is(err, permanent) {
		t.Fatalf("err = %v", err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1", attempts)
	}
}

// TestServeSurvivesBadContact: garbage from one client must not stop the
// listener; the next well-behaved peer still gets served.
func TestServeSurvivesBadContact(t *testing.T) {
	m := poiMap()
	cc := newTestPeer(t, model.CommandCenter, m, 0, WithFrameTimeout(time.Second))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- cc.Serve(l) }()

	// A client that sends a truncated garbage frame and hangs up.
	bad, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_ = bad.Close()
	deadline := time.Now().Add(5 * time.Second)
	for cc.ContactErrors() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("bad contact never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	if cc.LastContactError() == nil {
		t.Fatal("no last contact error recorded")
	}

	// The listener is still alive: a real peer can upload.
	n := newTestPeer(t, 1, m, 20*mb)
	if err := n.AddPhoto(viewFrom(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := n.Contact(l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if len(cc.Photos()) != 1 {
		t.Fatalf("CC received %d photos after the bad contact", len(cc.Photos()))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
