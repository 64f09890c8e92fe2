package peer

import (
	"context"
	"errors"
	"net"
	"syscall"
	"testing"
	"time"

	"photodtn/internal/model"
)

// TestServeOnClosedListenerReturnsNil: serving an already-closed listener
// is a clean no-op, exactly like a listener closed mid-serve.
func TestServeOnClosedListenerReturnsNil(t *testing.T) {
	p := newTestPeer(t, 1, poiMap(), 8*mb)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Serve(l) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve on closed listener = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve on closed listener hung")
	}
}

// TestDoubleServeRejected: a second concurrent Serve fails fast with
// ErrServing instead of racing the first accept loop for the radio.
func TestDoubleServeRejected(t *testing.T) {
	p := newTestPeer(t, 1, poiMap(), 8*mb)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	done := make(chan error, 1)
	go func() { done <- p.Serve(l) }()
	deadline := time.Now().Add(5 * time.Second)
	for !p.serving.Load() {
		if time.Now().After(deadline) {
			t.Fatal("first Serve never started")
		}
		time.Sleep(time.Millisecond)
	}

	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l2.Close() }()
	if err := p.Serve(l2); !errors.Is(err, ErrServing) {
		t.Fatalf("second Serve = %v, want ErrServing", err)
	}

	// The first loop is unaffected and still shuts down cleanly.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("first Serve = %v, want nil", err)
	}
	// With the first loop gone the peer may serve again.
	l3, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Serve(l3); err != nil {
		t.Fatalf("Serve after shutdown = %v, want nil", err)
	}
}

// TestContactAfterServeCancellation: cancelling ServeContext must leave the
// peer fully usable — the next Contact works and carries photos.
func TestContactAfterServeCancellation(t *testing.T) {
	m := poiMap()
	p := newTestPeer(t, 1, m, 8*mb)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.ServeContext(ctx, l) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled ServeContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled ServeContext hung")
	}

	cc := newTestPeer(t, model.CommandCenter, m, 0)
	lcc, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = lcc.Close() }()
	go func() { _ = cc.Serve(lcc) }()
	if err := p.AddPhoto(viewFrom(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Contact(lcc.Addr().String()); err != nil {
		t.Fatalf("Contact after cancelled serve = %v", err)
	}
	if len(cc.Photos()) != 1 {
		t.Fatalf("command center holds %d photos, want 1", len(cc.Photos()))
	}
}

// TestRetriesExhaustedSentinel: a transient failure that survives every
// attempt surfaces as ErrRetriesExhausted with the cause in the chain.
func TestRetriesExhaustedSentinel(t *testing.T) {
	refused := &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	var attempts int
	p := newTestPeer(t, 1, poiMap(), 8*mb,
		WithRetry(3, time.Millisecond, time.Millisecond),
		WithContextDialer(func(context.Context, string) (net.Conn, error) {
			attempts++
			return nil, refused
		}))
	p.sleep = func(time.Duration) {}
	err := p.Contact("nowhere:1")
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("cause lost from chain: %v", err)
	}
	if errors.Is(err, ErrContactRejected) {
		t.Fatalf("err = %v must not also be ErrContactRejected", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if !errors.Is(p.LastContactError(), ErrRetriesExhausted) {
		t.Fatalf("LastContactError = %v, want the classified error", p.LastContactError())
	}
}

// TestContactRejectedSentinel: a permanent failure is tagged
// ErrContactRejected without burning retries.
func TestContactRejectedSentinel(t *testing.T) {
	permanent := errors.New("authentication rejected")
	var attempts int
	p := newTestPeer(t, 1, poiMap(), 8*mb,
		WithRetry(5, time.Millisecond, time.Second),
		WithContextDialer(func(context.Context, string) (net.Conn, error) {
			attempts++
			return nil, permanent
		}))
	err := p.Contact("nowhere:1")
	if !errors.Is(err, ErrContactRejected) {
		t.Fatalf("err = %v, want ErrContactRejected", err)
	}
	if !errors.Is(err, permanent) {
		t.Fatalf("cause lost from chain: %v", err)
	}
	if errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v must not also be ErrRetriesExhausted", err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1", attempts)
	}
}
