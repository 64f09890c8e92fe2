package peer

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photodtn/internal/coverage"
	"photodtn/internal/faults"
	"photodtn/internal/geo"
	"photodtn/internal/model"
	"photodtn/internal/obs"
)

// poiMapN builds a map of n PoIs spaced far enough apart (100 km) that
// photos of different PoIs never interact — each dialer's upload decisions
// are then independent of what the others delivered, which is what lets the
// convergence test demand a bit-identical digest.
func poiMapN(n int) *coverage.Map {
	pois := make([]model.PoI, n)
	for i := range pois {
		pois[i] = model.NewPoI(i, geo.Vec{X: float64(i) * 100000})
	}
	return coverage.NewMap(pois, geo.Radians(30))
}

// viewOfPoI is viewFrom aimed at the poi-th PoI of a poiMapN map.
func viewOfPoI(owner model.NodeID, seq uint32, poi int, deg float64) model.Photo {
	center := geo.Vec{X: float64(poi) * 100000}
	return model.Photo{
		ID:          model.MakePhotoID(owner, seq),
		Owner:       owner,
		Location:    center.Add(geo.FromAngle(geo.Radians(deg)).Scale(60)),
		Range:       120,
		FOV:         geo.Radians(60),
		Orientation: geo.Radians(deg + 180),
		Size:        4 * mb,
	}
}

func mustRecord(t *testing.T, s *session, kind byte, payload []byte) {
	t.Helper()
	if err := s.record(kind, payload); err != nil {
		t.Fatal(err)
	}
}

func mustBegin(t *testing.T, p *Peer) *session {
	t.Helper()
	s, err := p.beginSession()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Two concurrent sessions deliver the same photo (two relays carried copies
// of it). The loser of the commit race must dedupe, not fail or
// double-store.
func TestCommitConflictDedupesConcurrentAdds(t *testing.T) {
	o := obs.New(0, nil)
	cc := newTestPeer(t, 0, poiMap(), 0, WithObserver(o))
	ph := viewFrom(1, 0, 0)

	s1 := mustBegin(t, cc)
	s2 := mustBegin(t, cc)
	mustRecord(t, s1, subStoreAdd, ph.AppendBinary(nil))
	mustRecord(t, s2, subStoreAdd, ph.AppendBinary(nil))
	if err := s1.commit(); err != nil {
		t.Fatal(err)
	}
	if err := s2.commit(); err != nil {
		t.Fatalf("racing duplicate delivery must commit cleanly, got %v", err)
	}
	photos := cc.Photos()
	if len(photos) != 1 || photos[0].ID != ph.ID {
		t.Fatalf("store holds %v, want exactly one %v", photos.IDs(), ph.ID)
	}
	if got := o.Counter("peer.commit_conflicts").Value(); got != 1 {
		t.Fatalf("commit_conflicts = %d, want 1", got)
	}
	if got := o.Counter("peer.commit_conflict_aborts").Value(); got != 0 {
		t.Fatalf("commit_conflict_aborts = %d for a reconciled commit, want 0", got)
	}
}

// A reallocation planned against a stale snapshot is merged with the
// concurrent commit's effects: photos it kept but the race removed stay
// gone, photos that arrived meanwhile are kept.
func TestCommitConflictReplansReallocation(t *testing.T) {
	p := newTestPeer(t, 1, poiMap(), 20*mb)
	a, b := viewFrom(1, 0, 0), viewFrom(1, 1, 90)
	for _, ph := range []model.Photo{a, b} {
		if err := p.AddPhoto(ph); err != nil {
			t.Fatal(err)
		}
	}
	c := viewFrom(2, 0, 180)

	s1 := mustBegin(t, p)
	s2 := mustBegin(t, p)
	mustRecord(t, s1, subStoreReplace, model.PhotoList{a}.AppendBinary(nil))       // drops b
	mustRecord(t, s2, subStoreReplace, model.PhotoList{a, b, c}.AppendBinary(nil)) // keeps b, adds c
	if err := s1.commit(); err != nil {
		t.Fatal(err)
	}
	if err := s2.commit(); err != nil {
		t.Fatalf("mergeable conflict must commit, got %v", err)
	}
	got := p.Photos()
	if len(got) != 2 || !got.Contains(a.ID) || !got.Contains(c.ID) || got.Contains(b.ID) {
		t.Fatalf("merged collection %v, want [a c] (b stays removed)", got.IDs())
	}
}

// When the merged collection no longer fits, the commit aborts with
// ErrConflict and — §III-D abort semantics — leaves no partial state.
func TestCommitConflictAbortsCleanly(t *testing.T) {
	o := obs.New(0, nil)
	p := newTestPeer(t, 1, poiMap(), 8*mb, WithObserver(o))
	a := viewFrom(1, 0, 0)
	if err := p.AddPhoto(a); err != nil {
		t.Fatal(err)
	}
	x, y := viewFrom(2, 0, 90), viewFrom(3, 0, 180)

	s1 := mustBegin(t, p)
	s2 := mustBegin(t, p)
	mustRecord(t, s1, subStoreReplace, model.PhotoList{a, x}.AppendBinary(nil))
	mustRecord(t, s2, subStoreReplace, model.PhotoList{a, y}.AppendBinary(nil))
	if err := s1.commit(); err != nil {
		t.Fatal(err)
	}
	digest := p.StateDigest()
	err := s2.commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("commit = %v, want ErrConflict (a+x+y needs 12MB, capacity 8MB)", err)
	}
	if got := p.StateDigest(); got != digest {
		t.Fatal("aborted commit mutated peer state")
	}
	got := p.Photos()
	if len(got) != 2 || !got.Contains(a.ID) || !got.Contains(x.ID) {
		t.Fatalf("collection %v, want the winner's [a x]", got.IDs())
	}
	// The loser took the reconcile path and aborted there: one of each.
	if c, a := o.Counter("peer.commit_conflicts").Value(), o.Counter("peer.commit_conflict_aborts").Value(); c != 1 || a != 1 {
		t.Fatalf("commit_conflicts = %d, commit_conflict_aborts = %d; want 1 and 1", c, a)
	}
}

// TestSoakAdmissionGate pins the acceptance bar: a peer with
// WithMaxContacts(8) sustains 8 simultaneous sessions, and the 9th accept
// is rejected by closing the connection before any protocol byte.
func TestSoakAdmissionGate(t *testing.T) {
	o := obs.New(0, nil)
	cc := newTestPeer(t, 0, poiMap(), 0, WithObserver(o), WithMaxContacts(8))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cc.Serve(l) }()

	// 8 dialers connect and stall before the hello: each occupies a live
	// session (the server side blocks reading the hello frame).
	conns := make([]net.Conn, 0, 8)
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	for i := 0; i < 8; i++ {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cc.InflightContacts() != 8 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d, want 8 simultaneous sessions", cc.InflightContacts())
		}
		time.Sleep(time.Millisecond)
	}

	// The 9th connection must be rejected promptly — closed with no bytes.
	extra, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = extra.Close() }()
	_ = extra.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := extra.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("9th connection read = %v, want EOF (clean rejection)", err)
	}
	if got := o.Counter("peer.admission_rejected").Value(); got < 1 {
		t.Fatalf("admission_rejected = %d, want >= 1", got)
	}

	// Release everything; the serve loop must drain to zero in-flight.
	for _, c := range conns {
		_ = c.Close()
	}
	_ = l.Close()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if got := cc.InflightContacts(); got != 0 {
		t.Fatalf("inflight = %d after drain, want 0", got)
	}
}

// TestSoakNoHeadOfLineBlocking pins the other acceptance bar: a stalled
// dialer holding a session must not delay other contacts past its own frame
// timeout — they complete while it is still stalling.
func TestSoakNoHeadOfLineBlocking(t *testing.T) {
	m := poiMap()
	cc := newTestPeer(t, 0, m, 0, WithMaxContacts(4), WithFrameTimeout(10*time.Second))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cc.Serve(l) }()

	// The staller: admitted, then silent. Its session idles in the hello
	// read until the 10s frame timeout.
	staller, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = staller.Close() }()
	deadline := time.Now().Add(5 * time.Second)
	for cc.InflightContacts() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("staller session never started")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	for i := 0; i < 3; i++ {
		d := newTestPeer(t, model.NodeID(i+1), m, 20*mb)
		if err := d.AddPhoto(viewFrom(model.NodeID(i+1), 0, float64(i)*60)); err != nil {
			t.Fatal(err)
		}
		if err := d.Contact(l.Addr().String()); err != nil {
			t.Fatalf("contact %d behind a staller: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("3 contacts took %v behind a stalled session (its frame timeout is 10s)", elapsed)
	}

	_ = staller.Close()
	_ = l.Close()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestSoakDigestConvergence runs 8 uploaders against one serving command
// center — once with all contacts concurrent, once strictly serialized —
// and demands bit-identical StateDigests: concurrency must not be able to
// produce a state no serial execution could.
func TestSoakDigestConvergence(t *testing.T) {
	const dialers = 8
	m := poiMapN(dialers)

	run := func(concurrent bool) uint64 {
		cc := New(0, m, 0, WithSeed(999), fixedClock(1000), WithMaxContacts(dialers))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cc.Serve(l) }()

		contact := func(i int) error {
			id := model.NodeID(i + 1)
			d := New(id, m, 40*mb, WithSeed(int64(id)), fixedClock(1000))
			for seq := uint32(0); seq < 3; seq++ {
				if err := d.AddPhoto(viewOfPoI(id, seq, i, float64(seq)*90)); err != nil {
					return err
				}
			}
			return d.Contact(l.Addr().String())
		}

		if concurrent {
			var wg sync.WaitGroup
			errs := make([]error, dialers)
			for i := 0; i < dialers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = contact(i)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("dialer %d: %v", i, err)
				}
			}
		} else {
			for i := 0; i < dialers; i++ {
				if err := contact(i); err != nil {
					t.Errorf("dialer %d: %v", i, err)
				}
			}
		}
		if t.Failed() {
			t.FailNow()
		}
		_ = l.Close()
		if err := <-done; err != nil {
			t.Fatalf("serve: %v", err)
		}
		if got := len(cc.Photos()); got != 3*dialers {
			t.Fatalf("command center holds %d photos, want %d", got, 3*dialers)
		}
		return cc.StateDigest()
	}

	concurrentDigest := run(true)
	serialDigest := run(false)
	if concurrentDigest != serialDigest {
		t.Fatalf("digest diverged: concurrent %#x, serialized %#x", concurrentDigest, serialDigest)
	}
}

// faultConn layers a fault-injecting io.ReadWriter over a real connection
// while passing deadlines through, so the peer's frame timeouts still bound
// every read and write (a lost frame times out instead of hanging).
type faultConn struct {
	rw   io.ReadWriter
	conn net.Conn
}

func (f *faultConn) Read(p []byte) (int, error)         { return f.rw.Read(p) }
func (f *faultConn) Write(p []byte) (int, error)        { return f.rw.Write(p) }
func (f *faultConn) SetReadDeadline(t time.Time) error  { return f.conn.SetReadDeadline(t) }
func (f *faultConn) SetWriteDeadline(t time.Time) error { return f.conn.SetWriteDeadline(t) }

// TestSoakFaultInjection hammers one serving command center with dialers
// whose links lose frames or die mid-contact on a deterministic schedule,
// and asserts the crash-consistency invariants: no duplicate deliveries, no
// photo freed by a dialer without being durably held by the command center,
// capacity respected everywhere, aborts fully accounted, and the in-flight
// gauge draining to zero.
func TestSoakFaultInjection(t *testing.T) {
	const dialers = 6
	m := poiMapN(dialers)
	o := obs.New(0, nil)
	cc := newTestPeer(t, 0, m, 0, WithObserver(o), WithMaxContacts(8),
		WithFrameTimeout(500*time.Millisecond))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cc.Serve(l) }()

	peers := make([]*Peer, dialers)
	initial := make([]model.PhotoList, dialers)
	for i := range peers {
		id := model.NodeID(i + 1)
		peers[i] = newTestPeer(t, id, m, 40*mb, WithFrameTimeout(500*time.Millisecond))
		for seq := uint32(0); seq < 2; seq++ {
			if err := peers[i].AddPhoto(viewOfPoI(id, seq, i, float64(seq)*120)); err != nil {
				t.Fatal(err)
			}
		}
		initial[i] = peers[i].Photos()
	}

	var wg sync.WaitGroup
	for i := 0; i < dialers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for attempt := 0; attempt < 4; attempt++ {
				conn, err := net.Dial("tcp", l.Addr().String())
				if err != nil {
					continue
				}
				var rw io.ReadWriter = conn
				switch i % 3 {
				case 1: // dies mid-contact, later each attempt
					rw = &faultConn{rw: faults.NewKillTransport(conn, 1+2*attempt), conn: conn}
				case 2: // lossy link
					rw = &faultConn{rw: faults.NewTransport(conn, 0.3, 0, int64(i*31+attempt)), conn: conn}
				}
				// Errors are expected by design — the invariants below are
				// what must hold regardless of which contacts died.
				_ = peers[i].ContactConn(rw, true)
				_ = conn.Close()
			}
		}(i)
	}
	wg.Wait()
	_ = l.Close()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// No duplicate deliveries, and accounting matches content.
	seen := make(map[model.PhotoID]bool)
	var used int64
	for _, ph := range cc.Photos() {
		if seen[ph.ID] {
			t.Fatalf("photo %v delivered twice", ph.ID)
		}
		seen[ph.ID] = true
		used += ph.Size
	}
	ccPhotos := cc.Photos()
	for i, p := range peers {
		now := p.Photos()
		if got := storageUsed(now); got > 40*mb {
			t.Fatalf("dialer %d over capacity: %d bytes", i, got)
		}
		// A dialer frees a copy only on an acknowledged upload, and the
		// command center commits before acking — so anything missing from
		// the dialer must be present at the command center.
		for _, ph := range initial[i] {
			if !now.Contains(ph.ID) && !ccPhotos.Contains(ph.ID) {
				t.Fatalf("dialer %d photo %v vanished: freed without durable delivery", i, ph.ID)
			}
		}
	}
	// Every aborted serve-side contact is accounted in the obs counter.
	if aborts, errsN := o.Counter("peer.contact_aborts").Value(), cc.ContactErrors(); aborts != errsN {
		t.Fatalf("contact_aborts = %d, ContactErrors = %d — abort accounting leaked", aborts, errsN)
	}
	if got := cc.InflightContacts(); got != 0 {
		t.Fatalf("inflight = %d after drain, want 0", got)
	}
}

func storageUsed(l model.PhotoList) int64 {
	var n int64
	for _, p := range l {
		n += p.Size
	}
	return n
}

// delayConn adds a fixed delay before every write — a stand-in for the
// frame latency of a radio link, which is what concurrent serving overlaps.
type delayConn struct {
	net.Conn
	delay time.Duration
}

func (c *delayConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

// BenchmarkContactsThroughput measures served contacts/sec with 1 vs 8
// concurrent dialers against one command center (the README quotes these),
// over raw loopback and over a link with 1 ms of per-frame latency.
func BenchmarkContactsThroughput(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
		delay   time.Duration
	}{
		{"loopback/inflight-1", 1, 0},
		{"loopback/inflight-8", 8, 0},
		{"slowlink/inflight-1", 1, time.Millisecond},
		{"slowlink/inflight-8", 8, time.Millisecond},
	} {
		workers := bc.workers
		b.Run(bc.name, func(b *testing.B) {
			m := poiMap()
			// Twice the dialer count in admission slots: a dialer's next dial
			// can land before the server goroutine of its previous contact
			// has released its slot, and a rejection here would measure the
			// retry backoff, not the protocol.
			cc := New(0, m, 0, WithSeed(1), WithMaxContacts(2*workers))
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- cc.Serve(l) }()

			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					id := model.NodeID(w + 1)
					opts := []Option{WithSeed(int64(id))}
					if bc.delay > 0 {
						opts = append(opts, WithContextDialer(func(ctx context.Context, addr string) (net.Conn, error) {
							c, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
							if err != nil {
								return nil, err
							}
							return &delayConn{Conn: c, delay: bc.delay}, nil
						}))
					}
					d := New(id, m, 20*mb, opts...)
					if err := d.AddPhoto(viewFrom(id, 0, float64(w)*30)); err != nil {
						b.Error(err)
						return
					}
					for next.Add(1) <= int64(b.N) {
						if err := d.Contact(l.Addr().String()); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			_ = l.Close()
			<-done
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "contacts/sec")
		})
	}
}
