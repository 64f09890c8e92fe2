package peer

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"photodtn/internal/coverage"
	"photodtn/internal/geo"
	"photodtn/internal/model"
	"photodtn/internal/wire"
)

const mb = int64(1) << 20

func poiMap() *coverage.Map {
	return coverage.NewMap([]model.PoI{model.NewPoI(0, geo.Vec{})}, geo.Radians(30))
}

func viewFrom(owner model.NodeID, seq uint32, deg float64) model.Photo {
	loc := geo.FromAngle(geo.Radians(deg)).Scale(60)
	return model.Photo{
		ID:          model.MakePhotoID(owner, seq),
		Owner:       owner,
		Location:    loc,
		Range:       120,
		FOV:         geo.Radians(60),
		Orientation: geo.Radians(deg + 180),
		Size:        4 * mb,
	}
}

// contact runs one in-memory contact between two peers over a pipe.
func contact(t *testing.T, a, b *Peer) {
	t.Helper()
	ca, cb := net.Pipe()
	defer func() { _ = ca.Close(); _ = cb.Close() }()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = a.ContactConn(ca, true)
	}()
	go func() {
		defer wg.Done()
		errs[1] = b.ContactConn(cb, false)
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("side %d: %v", i, err)
		}
	}
}

func fixedClock(at float64) Option {
	return WithClock(func() float64 { return at })
}

func newTestPeer(t *testing.T, id model.NodeID, m *coverage.Map, capacity int64, opts ...Option) *Peer {
	t.Helper()
	opts = append([]Option{WithSeed(int64(id) + 100), fixedClock(1000)}, opts...)
	return New(id, m, capacity, opts...)
}

func TestPeerExchangeSharesViews(t *testing.T) {
	m := poiMap()
	a := newTestPeer(t, 1, m, 8*mb)
	b := newTestPeer(t, 2, m, 8*mb)
	east := viewFrom(1, 0, 0)
	eastDup := viewFrom(2, 0, 0)
	north := viewFrom(2, 1, 90)
	if err := a.AddPhoto(east); err != nil {
		t.Fatal(err)
	}
	for _, p := range []model.Photo{eastDup, north} {
		if err := b.AddPhoto(p); err != nil {
			t.Fatal(err)
		}
	}

	contact(t, a, b)

	// Both sides should hold one east view and the north view.
	for _, p := range []*Peer{a, b} {
		photos := p.Photos()
		if len(photos) != 2 {
			t.Fatalf("peer %v holds %d photos (%v)", p.ID(), len(photos), photos.IDs())
		}
		cov := p.Coverage()
		want := coverage.Coverage{Point: 1, Aspect: geo.Radians(120)}
		if cov.Cmp(want) != 0 {
			t.Fatalf("peer %v coverage %v, want %v", p.ID(), cov, want)
		}
	}
}

func TestPeerPlansAgree(t *testing.T) {
	// After a contact, the union of the two collections must contain no
	// duplicate-only storage (the two sides executed the same plan). Run a
	// couple of pair contacts with random-ish photos.
	m := poiMap()
	a := newTestPeer(t, 1, m, 12*mb)
	b := newTestPeer(t, 2, m, 12*mb)
	for i := uint32(0); i < 3; i++ {
		if err := a.AddPhoto(viewFrom(1, i, float64(i)*40)); err != nil {
			t.Fatal(err)
		}
		if err := b.AddPhoto(viewFrom(2, i, float64(i)*40+120)); err != nil {
			t.Fatal(err)
		}
	}
	contact(t, a, b)
	// Joint plan: every stored photo must appear in the joint pool, and
	// each node's collection must fit its capacity.
	for _, p := range []*Peer{a, b} {
		if p.Photos().TotalSize() > 12*mb {
			t.Fatalf("peer %v exceeded capacity", p.ID())
		}
	}
}

func TestUploadToCommandCenter(t *testing.T) {
	m := poiMap()
	cc := newTestPeer(t, model.CommandCenter, m, 0)
	n := newTestPeer(t, 1, m, 20*mb)
	useful := viewFrom(1, 0, 0)
	useful2 := viewFrom(1, 1, 90)
	irrelevant := viewFrom(1, 2, 0)
	irrelevant.Location = geo.Vec{X: 1e6, Y: 1e6}
	for _, p := range []model.Photo{useful, useful2, irrelevant} {
		if err := n.AddPhoto(p); err != nil {
			t.Fatal(err)
		}
	}

	contact(t, n, cc) // node initiates toward the command center

	got := cc.Photos()
	if len(got) != 2 {
		t.Fatalf("CC received %d photos, want 2 (%v)", len(got), got.IDs())
	}
	if got.Contains(irrelevant.ID) {
		t.Fatal("irrelevant photo uploaded")
	}
	want := coverage.Coverage{Point: 1, Aspect: geo.Radians(120)}
	if cc.Coverage().Cmp(want) != 0 {
		t.Fatalf("CC coverage = %v, want %v", cc.Coverage(), want)
	}
	// Delivered photos freed at the node; irrelevant one still there.
	if n.Photos().Contains(useful.ID) || !n.Photos().Contains(irrelevant.ID) {
		t.Fatalf("node storage after upload: %v", n.Photos().IDs())
	}
	// The node learned the delivery probability.
	if n.DeliveryProb() <= 0 {
		t.Fatal("delivery probability did not increase after meeting the CC")
	}
}

func TestCommandCenterInitiatedContact(t *testing.T) {
	m := poiMap()
	cc := newTestPeer(t, model.CommandCenter, m, 0)
	n := newTestPeer(t, 1, m, 20*mb)
	if err := n.AddPhoto(viewFrom(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	contact(t, cc, n) // CC initiates (data mule passing by)
	if len(cc.Photos()) != 1 {
		t.Fatalf("CC received %d photos", len(cc.Photos()))
	}
}

func TestAckPropagatesThroughPeers(t *testing.T) {
	m := poiMap()
	cc := newTestPeer(t, model.CommandCenter, m, 0)
	a := newTestPeer(t, 1, m, 20*mb)
	b := newTestPeer(t, 2, m, 20*mb)
	if err := a.AddPhoto(viewFrom(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPhoto(viewFrom(2, 0, 0)); err != nil { // same view
		t.Fatal(err)
	}
	contact(t, a, cc) // a's east view is delivered
	contact(t, a, b)  // b learns via the ACK that east is covered
	if len(b.Photos()) != 0 {
		t.Fatalf("b still holds %v despite the delivery ACK", b.Photos().IDs())
	}
}

func TestUploadSecondContactSendsNothing(t *testing.T) {
	m := poiMap()
	cc := newTestPeer(t, model.CommandCenter, m, 0)
	n := newTestPeer(t, 1, m, 20*mb)
	if err := n.AddPhoto(viewFrom(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	contact(t, n, cc)
	contact(t, n, cc)
	if len(cc.Photos()) != 1 {
		t.Fatalf("CC photos = %d, want 1", len(cc.Photos()))
	}
}

func TestContactOverTCP(t *testing.T) {
	m := poiMap()
	cc := newTestPeer(t, model.CommandCenter, m, 0)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- cc.Serve(l) }()

	nodes := make([]*Peer, 0, 3)
	for i := model.NodeID(1); i <= 3; i++ {
		n := newTestPeer(t, i, m, 20*mb)
		if err := n.AddPhoto(viewFrom(i, 0, float64(i)*100)); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		if err := n.Contact(l.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(cc.Photos()); got != 3 {
		t.Fatalf("CC received %d photos, want 3", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

func TestContactDialFailure(t *testing.T) {
	n := newTestPeer(t, 1, poiMap(), 20*mb)
	if err := n.Contact("127.0.0.1:1"); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestProtocolViolation(t *testing.T) {
	m := poiMap()
	n := newTestPeer(t, 1, m, 20*mb)
	ca, cb := net.Pipe()
	defer func() { _ = ca.Close(); _ = cb.Close() }()
	done := make(chan error, 1)
	go func() { done <- n.ContactConn(ca, true) }()
	// Respond to the hello with a Bye: a protocol violation.
	if _, err := wire.Read(cb); err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(cb, wire.Bye{}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestAddPhotoCapacity(t *testing.T) {
	n := newTestPeer(t, 1, poiMap(), 4*mb)
	if err := n.AddPhoto(viewFrom(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := n.AddPhoto(viewFrom(1, 1, 90)); err == nil {
		t.Fatal("expected capacity error")
	}
}

func TestManyPeerMesh(t *testing.T) {
	// A small mesh: 4 peers plus CC; photos spread across peers; peers
	// contact each other pairwise and then one gateway uploads. The CC must
	// end with a diverse set.
	m := poiMap()
	cc := newTestPeer(t, model.CommandCenter, m, 0)
	peers := make([]*Peer, 0, 4)
	for i := model.NodeID(1); i <= 4; i++ {
		p := newTestPeer(t, i, m, 40*mb)
		for k := uint32(0); k < 2; k++ {
			photo := viewFrom(i, k, float64(i)*90+float64(k)*45)
			if err := p.AddPhoto(photo); err != nil {
				t.Fatal(err)
			}
		}
		peers = append(peers, p)
	}
	// Gateway (peer 1) meets the CC early so its delivery probability is
	// high when the others meet it.
	contact(t, peers[0], cc)
	for i := 1; i < len(peers); i++ {
		contact(t, peers[i], peers[0])
	}
	contact(t, peers[0], cc)
	cov := cc.Coverage()
	if cov.Point != 1 {
		t.Fatalf("CC point coverage = %v", cov.Point)
	}
	if cov.Aspect < geo.Radians(180) {
		t.Fatalf("CC aspect coverage only %.0f°", geo.Degrees(cov.Aspect))
	}
}

func TestPeerString(t *testing.T) {
	// Exercise fmt paths indirectly.
	n := newTestPeer(t, 5, poiMap(), 4*mb)
	if got := fmt.Sprintf("%v", n.ID()); got != "n5" {
		t.Fatalf("ID string = %q", got)
	}
}
