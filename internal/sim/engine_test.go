package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"photodtn/internal/coverage"
	"photodtn/internal/geo"
	"photodtn/internal/model"
	"photodtn/internal/trace"
)

// relayScheme is a minimal test scheme: nodes flood photos to each other
// and to the command center, content-blind, FIFO.
type relayScheme struct {
	w             *World
	unconstrained bool
	contacts      int
	photos        int
}

func (r *relayScheme) Name() string        { return "relay" }
func (r *relayScheme) Unconstrained() bool { return r.unconstrained }
func (r *relayScheme) Init(w *World)       { r.w = w }

func (r *relayScheme) OnPhoto(node model.NodeID, p model.Photo) {
	r.photos++
	_ = r.w.Storage(node).Add(p)
}

func (r *relayScheme) OnContact(s *Session) {
	r.contacts++
	if s.A.IsCommandCenter() || s.B.IsCommandCenter() {
		node := s.A
		if node.IsCommandCenter() {
			node = s.B
		}
		st := r.w.Storage(node)
		for _, p := range st.List() {
			if r.w.CCHas(p.ID) {
				continue
			}
			if err := s.Transfer(model.CommandCenter, p); err != nil {
				return
			}
		}
		return
	}
	stA, stB := r.w.Storage(s.A), r.w.Storage(s.B)
	for _, p := range stA.List() {
		if !stB.Has(p.ID) && p.Size <= stB.Free() {
			if err := s.Transfer(s.B, p); err != nil {
				return
			}
		}
	}
}

func testMap() *coverage.Map {
	return coverage.NewMap([]model.PoI{model.NewPoI(0, geo.Vec{})}, geo.Radians(30))
}

// usefulPhoto covers the single PoI of testMap from the east.
func usefulPhoto(owner model.NodeID, seq uint32) model.Photo {
	return model.Photo{
		ID: model.MakePhotoID(owner, seq), Owner: owner,
		Location: geo.Vec{X: 50}, Range: 100,
		FOV: geo.Radians(60), Orientation: geo.Radians(180),
		Size: 4,
	}
}

func baseConfig(tr *trace.Trace) Config {
	return Config{
		Trace:        tr,
		Map:          testMap(),
		StorageBytes: 100,
		Seed:         1,
	}
}

func TestRunDeliversThroughRelay(t *testing.T) {
	// 1 takes a photo, meets 2, 2 meets the CC.
	tr := &trace.Trace{Nodes: 2, Contacts: []trace.Contact{
		{Start: 10, End: 20, A: 1, B: 2},
		{Start: 30, End: 40, A: 2, B: 0},
	}}
	cfg := baseConfig(tr)
	cfg.Photos = []PhotoEvent{{Time: 5, Node: 1, Photo: usefulPhoto(1, 0)}}
	scheme := &relayScheme{}
	res, err := Run(cfg, scheme)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1", res.Final.Delivered)
	}
	if res.Final.PointFrac != 1 {
		t.Fatalf("point coverage = %v, want 1", res.Final.PointFrac)
	}
	if math.Abs(res.Final.AspectRad-geo.Radians(60)) > 1e-9 {
		t.Fatalf("aspect = %v", geo.Degrees(res.Final.AspectRad))
	}
	if scheme.contacts != 2 || scheme.photos != 1 {
		t.Fatalf("callbacks: contacts=%d photos=%d", scheme.contacts, scheme.photos)
	}
	if res.TransferredPhotos != 2 { // 1→2, 2→CC
		t.Fatalf("TransferredPhotos = %d", res.TransferredPhotos)
	}
}

func TestRunEventOrdering(t *testing.T) {
	// A photo taken exactly at a contact start must be available to that
	// contact (photo events sort before contacts at the same time).
	tr := &trace.Trace{Nodes: 1, Contacts: []trace.Contact{
		{Start: 10, End: 20, A: 1, B: 0},
	}}
	cfg := baseConfig(tr)
	cfg.Photos = []PhotoEvent{{Time: 10, Node: 1, Photo: usefulPhoto(1, 0)}}
	res, err := Run(cfg, &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1", res.Final.Delivered)
	}
}

func TestRunBudgetLimitsTransfers(t *testing.T) {
	// Contact duration 2s at 1 byte/s = 2 bytes budget: the 4-byte photo
	// cannot be transferred.
	tr := &trace.Trace{Nodes: 1, Contacts: []trace.Contact{
		{Start: 10, End: 12, A: 1, B: 0},
	}}
	cfg := baseConfig(tr)
	cfg.Bandwidth = 1
	cfg.Photos = []PhotoEvent{{Time: 5, Node: 1, Photo: usefulPhoto(1, 0)}}
	res, err := Run(cfg, &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Delivered != 0 {
		t.Fatalf("delivered = %d, want 0 under tight budget", res.Final.Delivered)
	}
	// A longer contact delivers it.
	tr.Contacts[0].End = 14.5
	res, err = Run(cfg, &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1", res.Final.Delivered)
	}
}

func TestRunBudgetCutDiscards(t *testing.T) {
	// Two contacts, each 2 s at 1 byte/s: the 4-byte photo never fits a
	// single contact. A budget-cut transfer is discarded (§III-D), so
	// nothing is ever delivered and no byte counts as transferred.
	tr := &trace.Trace{Nodes: 1, Contacts: []trace.Contact{
		{Start: 10, End: 12, A: 1, B: 0},
		{Start: 20, End: 22, A: 1, B: 0},
	}}
	cfg := baseConfig(tr)
	cfg.Bandwidth = 1
	cfg.Photos = []PhotoEvent{{Time: 5, Node: 1, Photo: usefulPhoto(1, 0)}}

	res, err := Run(cfg, &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Delivered != 0 || res.TransferredPhotos != 0 || res.TransferredBytes != 0 {
		t.Fatalf("delivered=%d photos=%d bytes=%d, want all zero",
			res.Final.Delivered, res.TransferredPhotos, res.TransferredBytes)
	}
}

func TestRunUnconstrainedLiftsLimits(t *testing.T) {
	tr := &trace.Trace{Nodes: 1, Contacts: []trace.Contact{
		{Start: 10, End: 10.1, A: 1, B: 0},
	}}
	cfg := baseConfig(tr)
	cfg.Bandwidth = 1
	cfg.StorageBytes = 1 // photo would not even fit
	cfg.Photos = []PhotoEvent{{Time: 5, Node: 1, Photo: usefulPhoto(1, 0)}}
	res, err := Run(cfg, &relayScheme{unconstrained: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Delivered != 1 {
		t.Fatalf("unconstrained delivered = %d, want 1", res.Final.Delivered)
	}
}

func TestRunGatewayContacts(t *testing.T) {
	tr := &trace.Trace{Nodes: 2} // no peer contacts at all
	cfg := baseConfig(tr)
	cfg.Span = 100
	cfg.Gateways = []model.NodeID{2}
	cfg.GatewayInterval = 30
	cfg.GatewayDuration = 5
	cfg.Photos = []PhotoEvent{{Time: 5, Node: 2, Photo: usefulPhoto(2, 0)}}
	scheme := &relayScheme{}
	res, err := Run(cfg, scheme)
	if err != nil {
		t.Fatal(err)
	}
	if scheme.contacts != 3 { // t = 30, 60, 90
		t.Fatalf("gateway contacts = %d, want 3", scheme.contacts)
	}
	if res.Final.Delivered != 1 {
		t.Fatalf("delivered = %d", res.Final.Delivered)
	}
}

func TestRunSampling(t *testing.T) {
	tr := &trace.Trace{Nodes: 2, Contacts: []trace.Contact{
		{Start: 10, End: 20, A: 1, B: 0},
	}}
	cfg := baseConfig(tr)
	cfg.Span = 100
	cfg.SampleInterval = 25
	cfg.Photos = []PhotoEvent{{Time: 5, Node: 1, Photo: usefulPhoto(1, 0)}}
	res, err := Run(cfg, &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 4 {
		t.Fatalf("samples = %d, want 4", len(res.Samples))
	}
	if res.Samples[0].Time != 25 || res.Samples[0].Delivered != 1 {
		t.Fatalf("first sample = %+v", res.Samples[0])
	}
	if res.Final.Time != 100 {
		t.Fatalf("final time = %v", res.Final.Time)
	}
}

func TestRunConfigValidation(t *testing.T) {
	tr := &trace.Trace{Nodes: 2}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil trace", func(c *Config) { c.Trace = nil }},
		{"nil map", func(c *Config) { c.Map = nil }},
		{"no storage", func(c *Config) { c.StorageBytes = 0 }},
		{"negative bandwidth", func(c *Config) { c.Bandwidth = -1 }},
		{"gateway without interval", func(c *Config) { c.Gateways = []model.NodeID{1} }},
		{"gateway out of range", func(c *Config) {
			c.Gateways = []model.NodeID{5}
			c.GatewayInterval = 10
		}},
		{"gateway is CC", func(c *Config) {
			c.Gateways = []model.NodeID{0}
			c.GatewayInterval = 10
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseConfig(tr)
			tt.mutate(&cfg)
			if _, err := Run(cfg, &relayScheme{}); !errors.Is(err, ErrBadSimConfig) {
				t.Fatalf("err = %v, want ErrBadSimConfig", err)
			}
		})
	}
}

func TestSessionTransferErrors(t *testing.T) {
	w := newWorld(testMap(), 2, 10, nil)
	s := &Session{w: w, A: 1, B: 2, budget: 6}
	p := usefulPhoto(1, 0) // 4 bytes
	if err := s.Transfer(2, p); err != nil {
		t.Fatal(err)
	}
	if s.Remaining() != 2 {
		t.Fatalf("remaining = %d", s.Remaining())
	}
	// Duplicate.
	if err := s.Transfer(2, p); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	// Budget: 4 > 2 remaining; budget is consumed by the aborted attempt.
	if err := s.Transfer(2, usefulPhoto(1, 1)); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if !s.Exhausted() {
		t.Fatal("session should be exhausted")
	}
}

func TestSessionTransferNoSpace(t *testing.T) {
	w := newWorld(testMap(), 2, 6, nil)
	s := &Session{w: w, A: 1, B: 2, unlimited: true}
	if err := s.Transfer(2, usefulPhoto(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Transfer(2, usefulPhoto(1, 1)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestSessionPeer(t *testing.T) {
	s := &Session{A: 1, B: 2}
	if s.Peer(1) != 2 || s.Peer(2) != 1 {
		t.Fatal("Peer wrong")
	}
}

func TestWorldDeliverDedup(t *testing.T) {
	w := newWorld(testMap(), 1, 100, nil)
	p := usefulPhoto(1, 0)
	w.deliver(p)
	w.deliver(p)
	if w.DeliveredCount() != 1 {
		t.Fatalf("delivered = %d", w.DeliveredCount())
	}
	if !w.CCHas(p.ID) {
		t.Fatal("CCHas wrong")
	}
	if w.CCCoverage().Point != 1 {
		t.Fatalf("cc coverage = %v", w.CCCoverage())
	}
}

func TestWorldStoragePanics(t *testing.T) {
	w := newWorld(testMap(), 2, 100, nil)
	for _, n := range []model.NodeID{0, 3, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Storage(%v) did not panic", n)
				}
			}()
			w.Storage(n)
		}()
	}
}

func TestRunManyAverages(t *testing.T) {
	tr := &trace.Trace{Nodes: 2, Contacts: []trace.Contact{
		{Start: 10, End: 20, A: 1, B: 0},
	}}
	avg, err := runCells(context.Background(), 4, 7, func(seed int64) (Config, Scheme, error) {
		cfg := baseConfig(tr)
		cfg.Span = 100
		cfg.SampleInterval = 50
		cfg.Seed = seed
		// Half the runs generate a photo before the contact, half after:
		// average delivered must be 0.5.
		when := 5.0
		if seed%2 == 0 {
			when = 50
		}
		cfg.Photos = []PhotoEvent{{Time: when, Node: 1, Photo: usefulPhoto(1, 0)}}
		return cfg, &relayScheme{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg.Runs != 4 || len(avg.Samples) != 2 {
		t.Fatalf("avg shape: runs=%d samples=%d", avg.Runs, len(avg.Samples))
	}
	if math.Abs(avg.Final.Delivered-0.5) > 1e-9 {
		t.Fatalf("avg delivered = %v, want 0.5", avg.Final.Delivered)
	}
}

func TestRunManyPropagatesErrors(t *testing.T) {
	_, err := runCells(context.Background(), 2, 1, func(seed int64) (Config, Scheme, error) {
		return Config{}, nil, errors.New("boom")
	})
	if err == nil {
		t.Fatal("expected error")
	}
}
