package peer

import (
	"context"
	"net"
	"syscall"
	"testing"
	"time"

	"photodtn/internal/obs"
)

// TestObserverCountsContactsRetriesAborts exercises the peer's
// instrumentation: a successful contact after transient dial failures must
// show up in the contact and retry counters, and an exhausted retry budget
// must surface as an abort (counter + session-abort trace event).
func TestObserverCountsContactsRetriesAborts(t *testing.T) {
	m := poiMap()
	o := obs.New(64, nil)
	cc := newTestPeer(t, 0, m, 0)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() { _ = cc.Serve(l) }()

	refused := &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	var attempts int
	n := newTestPeer(t, 1, m, 20*mb,
		WithObserver(o),
		WithRetry(2, time.Millisecond, time.Millisecond),
		WithContextDialer(func(_ context.Context, addr string) (net.Conn, error) {
			attempts++
			if attempts == 1 {
				return nil, refused
			}
			return net.Dial("tcp", addr)
		}))
	n.sleep = func(time.Duration) {}
	if err := n.AddPhoto(viewFrom(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := n.Contact(l.Addr().String()); err != nil {
		t.Fatalf("contact: %v", err)
	}
	if got := o.Counter("peer.contact_retries").Value(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	if got := o.Counter("peer.contacts").Value(); got < 1 {
		t.Fatalf("contacts = %d, want >= 1", got)
	}
	if got := o.Counter("peer.contact_aborts").Value(); got != 0 {
		t.Fatalf("aborts = %d after a successful contact", got)
	}

	// Now exhaust the retry budget entirely.
	bad := newTestPeer(t, 2, m, 4*mb,
		WithObserver(o),
		WithRetry(2, time.Millisecond, time.Millisecond),
		WithContextDialer(func(context.Context, string) (net.Conn, error) { return nil, refused }))
	bad.sleep = func(time.Duration) {}
	if err := bad.Contact("anywhere:1"); err == nil {
		t.Fatal("contact unexpectedly succeeded")
	}
	if got := o.Counter("peer.contact_aborts").Value(); got != 1 {
		t.Fatalf("aborts = %d, want 1", got)
	}
	if got := o.Trace.CountKind(obs.EvSessionAbort); got != 1 {
		t.Fatalf("session-abort events = %d, want 1", got)
	}
	if bad.ContactErrors() != 1 {
		t.Fatalf("ContactErrors = %d, want 1", bad.ContactErrors())
	}
}
