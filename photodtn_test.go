package photodtn_test

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"photodtn"
)

// The facade tests exercise the public API end-to-end the way a downstream
// user would; detailed behaviour is tested in the internal packages.

func facadeMap() *photodtn.Map {
	pois := []photodtn.PoI{
		photodtn.NewPoI(0, photodtn.Vec{X: 0, Y: 0}),
		photodtn.NewPoI(1, photodtn.Vec{X: 400, Y: 0}),
	}
	return photodtn.NewMap(pois, photodtn.Radians(30))
}

func facadePhoto(owner photodtn.NodeID, seq uint32, at photodtn.Vec, lookDeg float64) photodtn.Photo {
	return photodtn.Photo{
		ID:          photodtn.PhotoID(uint64(owner)<<32 | uint64(seq)),
		Owner:       owner,
		Location:    at,
		Range:       150,
		FOV:         photodtn.Radians(50),
		Orientation: photodtn.Radians(lookDeg),
		Size:        4 << 20,
	}
}

func TestFacadeCoverageModel(t *testing.T) {
	m := facadeMap()
	photos := photodtn.PhotoList{
		facadePhoto(1, 0, photodtn.Vec{X: 80, Y: 0}, 180),
		facadePhoto(1, 1, photodtn.Vec{X: 320, Y: 0}, 0),
	}
	cov := m.Of(photos)
	if cov.Point != 2 {
		t.Fatalf("point coverage = %v", cov.Point)
	}
	pt, as := m.Normalized(cov)
	if pt != 1 || as <= 0 {
		t.Fatalf("normalized = %v, %v", pt, as)
	}
}

func TestFacadeSelection(t *testing.T) {
	m := facadeMap()
	fpc := photodtn.NewFootprintCache(m)
	photos := photodtn.PhotoList{
		facadePhoto(1, 0, photodtn.Vec{X: 80, Y: 0}, 180),
		facadePhoto(1, 1, photodtn.Vec{X: 82, Y: 0}, 180), // duplicate view
		facadePhoto(1, 2, photodtn.Vec{X: 320, Y: 0}, 0),
	}
	res := photodtn.Reallocate(fpc, photodtn.DefaultSelectionConfig(), nil,
		photodtn.Alloc{Node: 1, P: 0.8, Capacity: 8 << 20, Photos: photos},
		photodtn.Alloc{Node: 2, P: 0.1, Capacity: 0},
	)
	if !res.AFirst || len(res.ASel) != 2 {
		t.Fatalf("reallocation = %+v", res)
	}
	// One photo per PoI, no duplicates.
	if m.Of(res.ASel).Point != 2 {
		t.Fatalf("selection coverage = %v", m.Of(res.ASel))
	}
}

func TestFacadeExpectedCoverage(t *testing.T) {
	m := facadeMap()
	parts := []photodtn.MetadataEntry{{
		Node: 1, P: 0.5,
		Photos: photodtn.PhotoList{facadePhoto(1, 0, photodtn.Vec{X: 80, Y: 0}, 180)},
	}}
	got := photodtn.ExpectedCoverage(m, photodtn.DefaultSelectionConfig(), nil, parts)
	if got.Point != 0.5 {
		t.Fatalf("expected coverage = %v", got)
	}
}

// facadeSimConfig builds the small well-connected scenario the simulation
// facade tests share.
func facadeSimConfig(t *testing.T) photodtn.SimConfig {
	t.Helper()
	tr, err := photodtn.GenerateTrace(photodtn.TraceSynthConfig{
		Nodes: 10, Span: 20 * 3600, Communities: 2,
		IntraRate: 0.5 / 3600, InterRate: 0.05 / 3600,
		MeanContactDur: 300, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return photodtn.SimConfig{
		Trace:           tr,
		Map:             facadeMap(),
		StorageBytes:    100 << 20,
		Gateways:        []photodtn.NodeID{1},
		GatewayInterval: 4 * 3600,
		GatewayDuration: 600,
		Seed:            1,
		Photos: []photodtn.PhotoEvent{
			{Time: 100, Node: 2, Photo: facadePhoto(2, 0, photodtn.Vec{X: 80, Y: 0}, 180)},
			{Time: 200, Node: 3, Photo: facadePhoto(3, 0, photodtn.Vec{X: 320, Y: 0}, 0)},
		},
	}
}

func TestFacadeSimulation(t *testing.T) {
	cfg := facadeSimConfig(t)
	res, err := photodtn.RunSimulation(cfg, photodtn.NewFramework(photodtn.DefaultFrameworkConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Delivered == 0 {
		t.Fatal("nothing delivered in a well-connected scenario")
	}
	// The baselines construct through the facade too.
	for _, s := range []photodtn.Scheme{
		photodtn.NewSprayAndWait(), photodtn.NewModifiedSpray(),
		photodtn.NewPhotoNet(), photodtn.NewBestPossible(),
	} {
		if _, err := photodtn.RunSimulation(cfg, s); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestFacadeLivePeers(t *testing.T) {
	m := facadeMap()
	var ticks atomic.Int64
	tick := func() float64 { return float64(ticks.Add(10)) }
	cc := photodtn.NewPeer(photodtn.CommandCenter, m, 0, photodtn.WithClock(tick), photodtn.WithSeed(1))
	node := photodtn.NewPeer(1, m, 40<<20, photodtn.WithClock(tick), photodtn.WithSeed(2))
	if err := node.AddPhoto(facadePhoto(1, 0, photodtn.Vec{X: 80, Y: 0}, 180)); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cc.Serve(l) }()
	if err := node.Contact(l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if len(cc.Photos()) != 1 {
		t.Fatalf("CC photos = %d", len(cc.Photos()))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestFacadePhonePipeline(t *testing.T) {
	phone, err := photodtn.NewPhone(1, photodtn.DefaultPhoneConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	phone.MoveTo(photodtn.Vec{X: 10, Y: 0})
	phone.AimAt(photodtn.Vec{X: 90, Y: 0})
	photo := phone.Capture(1)
	if err := photo.Validate(); err != nil {
		t.Fatal(err)
	}
	if photodtn.Degrees(photo.Orientation) > 10 && photodtn.Degrees(photo.Orientation) < 350 {
		t.Fatalf("orientation %.1f° not pointing east", photodtn.Degrees(photo.Orientation))
	}
}

func TestFacadeUnifiedObserver(t *testing.T) {
	// One observer, one option, three layers: the same WithObserver value
	// must wire the selection machinery, the simulator, and a live peer into
	// the same registry.
	o := photodtn.NewObserver(0, nil)
	opt := photodtn.WithObserver(o)
	m := facadeMap()

	// Selection layer.
	parts := []photodtn.MetadataEntry{{
		Node: 1, P: 0.5,
		Photos: photodtn.PhotoList{facadePhoto(1, 0, photodtn.Vec{X: 80, Y: 0}, 180)},
	}}
	_ = photodtn.ExpectedCoverage(m, photodtn.DefaultSelectionConfig(opt), nil, parts)
	if o.Counter("selection.evaluators").Value() == 0 {
		t.Fatal("selection layer did not report into the unified observer")
	}

	// Simulation layer.
	if _, err := photodtn.RunSimulation(facadeSimConfig(t), photodtn.NewSprayAndWait(), opt); err != nil {
		t.Fatal(err)
	}
	if o.Counter("sim.contacts").Value() == 0 {
		t.Fatal("simulation layer did not report into the unified observer")
	}

	// Peer layer: the same value is a PeerOption.
	var ticks atomic.Int64
	tick := func() float64 { return float64(ticks.Add(10)) }
	cc := photodtn.NewPeer(photodtn.CommandCenter, m, 0, opt, photodtn.WithClock(tick), photodtn.WithSeed(1))
	node := photodtn.NewPeer(1, m, 40<<20, opt, photodtn.WithClock(tick), photodtn.WithSeed(2))
	if err := node.AddPhoto(facadePhoto(1, 0, photodtn.Vec{X: 80, Y: 0}, 180)); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cc.Serve(l) }()
	if err := node.Contact(l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if o.Counter("peer.contacts").Value() == 0 {
		t.Fatal("peer layer did not report into the unified observer")
	}
}

func TestFacadeUnifiedTransfer(t *testing.T) {
	// WithTransfer is a PeerOption: it configures the chunked transfer of
	// live peers.
	if photodtn.ProtocolVersion != 4 {
		t.Fatalf("ProtocolVersion = %d, want 4", photodtn.ProtocolVersion)
	}
	opt := photodtn.WithTransfer(photodtn.TransferConfig{ChunkSize: 32 << 10, Resume: true})
	m := facadeMap()

	// Peer layer: a 96 KiB payload over 32 KiB chunks is exactly 3 frames.
	var ticks atomic.Int64
	tick := func() float64 { return float64(ticks.Add(10)) }
	cc := photodtn.NewPeer(photodtn.CommandCenter, m, 0, opt,
		photodtn.WithClock(tick), photodtn.WithSeed(1), photodtn.WithPayloadBytes(96<<10))
	node := photodtn.NewPeer(1, m, 40<<20, opt,
		photodtn.WithClock(tick), photodtn.WithSeed(2), photodtn.WithPayloadBytes(96<<10))
	if err := node.AddPhoto(facadePhoto(1, 0, photodtn.Vec{X: 80, Y: 0}, 180)); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cc.Serve(l) }()
	if err := node.Contact(l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(cc.Photos()) != 1 {
		t.Fatalf("CC photos = %d", len(cc.Photos()))
	}
	if ts := cc.TransferStats(); ts.ChunksReceived != 3 {
		t.Fatalf("CC chunks received = %d, want 3", ts.ChunksReceived)
	}
	if ts := node.TransferStats(); ts.ChunksSent != 3 {
		t.Fatalf("node chunks sent = %d, want 3", ts.ChunksSent)
	}
}

// gatewayPhotos are the gateway's three 4 MiB photos of the budget-cut
// differential. They cover 3, 2 and 1 disjoint PoIs, so the marginal-gain
// upload order both the simulator and a live peer use is their ID order.
func gatewayPhotos() (*photodtn.Map, photodtn.PhotoList) {
	var pois []photodtn.PoI
	var photos photodtn.PhotoList
	for i, n := range []int{3, 2, 1} {
		x := float64(i) * 1000
		for k := 0; k < n; k++ {
			pois = append(pois, photodtn.NewPoI(len(pois), photodtn.Vec{X: x, Y: float64(k) * 10}))
		}
		photos = append(photos, facadePhoto(1, uint32(i), photodtn.Vec{X: x + 80, Y: 0}, 180))
	}
	return photodtn.NewMap(pois, photodtn.Radians(30)), photos
}

// TestSimLiveGatewayBudgetCutAgree pins the simulator's §III-D discard rule
// against a live peer. Gateway node 1 holds three 4 MiB photos and reaches
// the command center at t=100 and t=200 with a 6 MiB budget each: the first
// contact delivers p1 and cuts p2, the second delivers p2 and cuts p3. A
// live pair with Resume off must deliver the same set after each contact;
// with Resume on, p2's surviving prefix lets p3 complete at the second.
func TestSimLiveGatewayBudgetCutAgree(t *testing.T) {
	const mib = 1 << 20
	m, photos := gatewayPhotos()
	want := [][]photodtn.PhotoID{
		{photos[0].ID},
		{photos[0].ID, photos[1].ID},
	}

	// Simulator: 1 MiB/s over a 6 s gateway contact every 100 s, observed
	// after the first contact (span 150) and after the second (span 250).
	for i, span := range []float64{150, 250} {
		cfg := photodtn.SimConfig{
			Trace:           &photodtn.Trace{Nodes: 1},
			Map:             m,
			StorageBytes:    64 * mib,
			Bandwidth:       mib,
			Gateways:        []photodtn.NodeID{1},
			GatewayInterval: 100,
			GatewayDuration: 6,
			Span:            span,
			Seed:            1,
		}
		for k, p := range photos {
			cfg.Photos = append(cfg.Photos, photodtn.PhotoEvent{Time: float64(10 * (k + 1)), Node: 1, Photo: p})
		}
		res, err := photodtn.RunSimulation(cfg, photodtn.NewFramework(photodtn.DefaultFrameworkConfig()))
		if err != nil {
			t.Fatal(err)
		}
		if got := photoIDs(res.DeliveredPhotos); !slices.Equal(got, want[i]) {
			t.Fatalf("sim after contact %d delivered %v, want %v", i+1, got, want[i])
		}
	}

	// Live: the same budget per transfer leg, cut at 1 MiB chunk
	// boundaries, over contacts run through ContactConn on a pipe.
	for _, resume := range []bool{false, true} {
		var now atomic.Int64
		clock := func() float64 { return float64(now.Load()) }
		tc := photodtn.TransferConfig{ChunkSize: mib, BudgetBytes: 6 * mib, Resume: resume}
		opts := []photodtn.PeerOption{
			photodtn.WithTransfer(tc), photodtn.WithClock(clock), photodtn.WithPayloadBytes(4 * mib),
		}
		cc := photodtn.NewPeer(photodtn.CommandCenter, m, 0, append(opts, photodtn.WithSeed(1))...)
		gw := photodtn.NewPeer(1, m, 64*mib, append(opts, photodtn.WithSeed(2))...)
		for _, p := range photos {
			if err := gw.AddPhoto(p); err != nil {
				t.Fatal(err)
			}
		}
		for i, at := range []int64{100, 200} {
			now.Store(at)
			pipeContact(t, gw, cc)
			got := photoIDs(cc.Photos())
			switch {
			case !resume && !slices.Equal(got, want[i]):
				t.Fatalf("live Resume:false after contact %d delivered %v, want %v (the sim's set)", i+1, got, want[i])
			case resume && i == 1 && !slices.Equal(got, photoIDs(photos)):
				t.Fatalf("live Resume:true after contact 2 delivered %v, want all of %v", got, photoIDs(photos))
			}
		}
	}
}

// pipeContact runs one contact between a (initiator) and b over net.Pipe.
func pipeContact(t *testing.T, a, b *photodtn.Peer) {
	t.Helper()
	ca, cb := net.Pipe()
	errB := make(chan error, 1)
	go func() {
		errB <- b.ContactConn(cb, false)
		_ = cb.Close()
	}()
	errA := a.ContactConn(ca, true)
	_ = ca.Close()
	if err := errors.Join(errA, <-errB); err != nil {
		t.Fatal(err)
	}
}

// photoIDs returns the IDs of a photo list in ascending order.
func photoIDs(ps photodtn.PhotoList) []photodtn.PhotoID {
	ids := make([]photodtn.PhotoID, len(ps))
	for i, p := range ps {
		ids[i] = p.ID
	}
	slices.Sort(ids)
	return ids
}

func TestFacadeRunSimulationContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := photodtn.RunSimulationContext(ctx, facadeSimConfig(t), photodtn.NewSprayAndWait())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFacadeRunCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	cp, err := photodtn.OpenRunCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Len() != 0 {
		t.Fatalf("fresh checkpoint holds %d cells", cp.Len())
	}
	// ExperimentOptions carries it into any harness.
	_ = photodtn.ExperimentOptions{Runs: 1, Workers: 2, Checkpoint: cp}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDemoAndTable(t *testing.T) {
	if out := photodtn.FormatTable1(); len(out) == 0 {
		t.Fatal("empty Table I")
	}
	res, err := photodtn.RunDemo(photodtn.DefaultDemoConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("demo rows = %d", len(res.Rows))
	}
}
