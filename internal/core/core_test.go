package core

import (
	"testing"

	"photodtn/internal/coverage"
	"photodtn/internal/geo"
	"photodtn/internal/model"
	"photodtn/internal/sim"
	"photodtn/internal/trace"
)

const mb = int64(1) << 20

func poiMap() *coverage.Map {
	return coverage.NewMap([]model.PoI{model.NewPoI(0, geo.Vec{})}, geo.Radians(30))
}

// viewFrom makes a 4 MB photo viewing the PoI at the origin from compass
// angle deg.
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

func farAway(owner model.NodeID, seq uint32) model.Photo {
	p := viewFrom(owner, seq, 0)
	p.Location = geo.Vec{X: 1e6, Y: 1e6}
	return p
}

func runScheme(t *testing.T, cfg sim.Config, s sim.Scheme) *sim.Result {
	t.Helper()
	res, err := sim.Run(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNames(t *testing.T) {
	if got := New(DefaultConfig()).Name(); got != "OurScheme" {
		t.Fatalf("Name = %q", got)
	}
	cfg := DefaultConfig()
	cfg.DisableMetadata = true
	if got := New(cfg).Name(); got != "NoMetadata" {
		t.Fatalf("Name = %q", got)
	}
	if New(DefaultConfig()).Unconstrained() {
		t.Fatal("our scheme must be constrained")
	}
}

func TestUploadToCommandCenter(t *testing.T) {
	tr := &trace.Trace{Nodes: 1, Contacts: []trace.Contact{
		{Start: 100, End: 200, A: 1, B: 0},
	}}
	cfg := sim.Config{
		Trace: tr, Map: poiMap(), StorageBytes: 20 * mb, Seed: 1,
		Photos: []sim.PhotoEvent{
			{Time: 1, Node: 1, Photo: viewFrom(1, 0, 0)},
			{Time: 2, Node: 1, Photo: viewFrom(1, 1, 90)},
			{Time: 3, Node: 1, Photo: viewFrom(1, 2, 0)}, // duplicate view
			{Time: 4, Node: 1, Photo: farAway(1, 3)},     // irrelevant
		},
	}
	res := runScheme(t, cfg, New(DefaultConfig()))
	// Only the two useful distinct views are uploaded: the duplicate adds
	// no coverage and the irrelevant photo none at all.
	if res.Final.Delivered != 2 {
		t.Fatalf("delivered = %d, want 2", res.Final.Delivered)
	}
	if res.Final.PointFrac != 1 {
		t.Fatalf("point = %v", res.Final.PointFrac)
	}
}

func TestUploadRemovesDeliveredFromStorage(t *testing.T) {
	// After the upload contact the node's delivered photos are gone, so a
	// second CC contact transfers nothing new.
	tr := &trace.Trace{Nodes: 1, Contacts: []trace.Contact{
		{Start: 100, End: 200, A: 1, B: 0},
		{Start: 300, End: 400, A: 1, B: 0},
	}}
	cfg := sim.Config{
		Trace: tr, Map: poiMap(), StorageBytes: 20 * mb, Seed: 1,
		Photos: []sim.PhotoEvent{{Time: 1, Node: 1, Photo: viewFrom(1, 0, 0)}},
	}
	res := runScheme(t, cfg, New(DefaultConfig()))
	if res.Final.Delivered != 1 {
		t.Fatalf("delivered = %d", res.Final.Delivered)
	}
	if res.TransferredPhotos != 1 {
		t.Fatalf("transfers = %d, want 1 (no re-upload)", res.TransferredPhotos)
	}
}

func TestPeerReallocationSharesViews(t *testing.T) {
	tr := &trace.Trace{Nodes: 2, Contacts: []trace.Contact{
		{Start: 100, End: 200, A: 1, B: 2},
	}}
	east := viewFrom(1, 0, 0)
	eastDup := viewFrom(2, 0, 0)
	north := viewFrom(2, 1, 90)
	cfg := sim.Config{
		Trace: tr, Map: poiMap(), StorageBytes: 8 * mb, Seed: 1,
		Photos: []sim.PhotoEvent{
			{Time: 1, Node: 1, Photo: east},
			{Time: 2, Node: 2, Photo: eastDup},
			{Time: 3, Node: 2, Photo: north},
		},
	}
	scheme := New(DefaultConfig())
	runScheme(t, cfg, scheme)
	// Both nodes should end with one east view and the north view; the
	// duplicate east view must survive on at most one node.
	stA, stB := scheme.w.Storage(1), scheme.w.Storage(2)
	for _, st := range []*sim.Storage{stA, stB} {
		if st.Len() != 2 {
			t.Fatalf("storage len = %d, want 2", st.Len())
		}
	}
	eastCount := 0
	for _, id := range []model.PhotoID{east.ID, eastDup.ID} {
		if stA.Has(id) {
			eastCount++
		}
		if stB.Has(id) {
			eastCount++
		}
	}
	if eastCount != 2 { // one east view per node, not both dups anywhere
		t.Fatalf("east views across nodes = %d, want 2", eastCount)
	}
	if !stA.Has(north.ID) || !stB.Has(north.ID) {
		t.Fatal("north view should be replicated to both nodes")
	}
}

func TestAckPropagationDropsDelivered(t *testing.T) {
	// Node 1 uploads the east view, then meets node 2 who holds a duplicate
	// east view. With metadata (ACK) the duplicate is dropped; without it,
	// it survives.
	tr := &trace.Trace{Nodes: 2, Contacts: []trace.Contact{
		{Start: 100, End: 200, A: 1, B: 0},
		{Start: 300, End: 400, A: 1, B: 2},
	}}
	mkCfg := func() sim.Config {
		return sim.Config{
			Trace: tr, Map: poiMap(), StorageBytes: 20 * mb, Seed: 1,
			Photos: []sim.PhotoEvent{
				{Time: 1, Node: 1, Photo: viewFrom(1, 0, 0)},
				{Time: 2, Node: 2, Photo: viewFrom(2, 0, 0)},
			},
		}
	}
	withMeta := New(DefaultConfig())
	runScheme(t, mkCfg(), withMeta)
	if withMeta.w.Storage(2).Len() != 0 {
		t.Fatal("with ACK metadata the delivered duplicate must be dropped")
	}

	noMetaCfg := DefaultConfig()
	noMetaCfg.DisableMetadata = true
	noMeta := New(noMetaCfg)
	runScheme(t, mkCfg(), noMeta)
	if noMeta.w.Storage(2).Len() != 1 {
		t.Fatal("without metadata the duplicate should survive")
	}
}

func TestBudgetLimitsRealization(t *testing.T) {
	// Node 2 holds three useful views; node 1 (about to meet the CC soon,
	// but with tiny contact budget) can only receive one of them.
	tr := &trace.Trace{Nodes: 2, Contacts: []trace.Contact{
		{Start: 100, End: 102, A: 1, B: 2}, // 2 s × 2 MB/s = 4 MB: one photo
	}}
	cfg := sim.Config{
		Trace: tr, Map: poiMap(), StorageBytes: 40 * mb, Bandwidth: 2 * float64(mb), Seed: 1,
		Photos: []sim.PhotoEvent{
			{Time: 1, Node: 2, Photo: viewFrom(2, 0, 0)},
			{Time: 2, Node: 2, Photo: viewFrom(2, 1, 90)},
			{Time: 3, Node: 2, Photo: viewFrom(2, 2, 180)},
		},
	}
	scheme := New(DefaultConfig())
	res := runScheme(t, cfg, scheme)
	if res.TransferredPhotos != 1 {
		t.Fatalf("transfers = %d, want 1 under a 4 MB budget", res.TransferredPhotos)
	}
	if scheme.w.Storage(1).Len() != 1 {
		t.Fatalf("node 1 photos = %d, want 1", scheme.w.Storage(1).Len())
	}
	// Node 2 keeps everything: its own photos need no transmission.
	if scheme.w.Storage(2).Len() != 3 {
		t.Fatalf("node 2 photos = %d, want 3", scheme.w.Storage(2).Len())
	}
}

func TestOnPhotoEviction(t *testing.T) {
	tr := &trace.Trace{Nodes: 1}
	cfg := sim.Config{
		Trace: tr, Map: poiMap(), StorageBytes: 8 * mb, Seed: 1, Span: 100,
		Photos: []sim.PhotoEvent{
			{Time: 1, Node: 1, Photo: farAway(1, 0)},      // worthless
			{Time: 2, Node: 1, Photo: viewFrom(1, 1, 0)},  // useful
			{Time: 3, Node: 1, Photo: viewFrom(1, 2, 90)}, // useful: must evict the worthless one
		},
	}
	scheme := New(DefaultConfig())
	runScheme(t, cfg, scheme)
	st := scheme.w.Storage(1)
	if st.Has(model.MakePhotoID(1, 0)) {
		t.Fatal("worthless photo should have been evicted")
	}
	if !st.Has(model.MakePhotoID(1, 1)) || !st.Has(model.MakePhotoID(1, 2)) {
		t.Fatal("useful photos missing")
	}
}

func TestOnPhotoRejectsWorstNewcomer(t *testing.T) {
	tr := &trace.Trace{Nodes: 1}
	cfg := sim.Config{
		Trace: tr, Map: poiMap(), StorageBytes: 8 * mb, Seed: 1, Span: 100,
		Photos: []sim.PhotoEvent{
			{Time: 1, Node: 1, Photo: viewFrom(1, 0, 0)},
			{Time: 2, Node: 1, Photo: viewFrom(1, 1, 90)},
			{Time: 3, Node: 1, Photo: farAway(1, 2)}, // full storage, worst photo
		},
	}
	scheme := New(DefaultConfig())
	runScheme(t, cfg, scheme)
	st := scheme.w.Storage(1)
	if st.Has(model.MakePhotoID(1, 2)) {
		t.Fatal("worthless newcomer must be rejected")
	}
	if st.Len() != 2 {
		t.Fatalf("storage len = %d", st.Len())
	}
}

// Regression: a capture that needed two evictions evicted the first victim
// before finding that the newcomer was worth less than the second, then
// rejected it, leaving the store a photo short for nothing. A rejected
// capture must leave the store as it was.
func TestOnPhotoRejectionEvictsNothing(t *testing.T) {
	big := farAway(1, 2)
	big.Size = 8 * mb
	tr := &trace.Trace{Nodes: 1}
	cfg := sim.Config{
		Trace: tr, Map: poiMap(), StorageBytes: 8 * mb, Seed: 1, Span: 100,
		Photos: []sim.PhotoEvent{
			{Time: 1, Node: 1, Photo: farAway(1, 0)},     // worthless
			{Time: 2, Node: 1, Photo: viewFrom(1, 1, 0)}, // useful
			{Time: 3, Node: 1, Photo: big},               // worthless, needs both slots
		},
	}
	scheme := New(DefaultConfig())
	runScheme(t, cfg, scheme)
	st := scheme.w.Storage(1)
	if st.Has(big.ID) {
		t.Fatal("worthless newcomer must be rejected")
	}
	if !st.Has(model.MakePhotoID(1, 0)) || !st.Has(model.MakePhotoID(1, 1)) || st.Free() != 0 {
		t.Fatalf("rejected capture changed the store: %v, %d bytes free", st.Photos().IDs(), st.Free())
	}
}

func TestOnPhotoOversized(t *testing.T) {
	tr := &trace.Trace{Nodes: 1}
	big := viewFrom(1, 0, 0)
	big.Size = 100 * mb
	cfg := sim.Config{
		Trace: tr, Map: poiMap(), StorageBytes: 8 * mb, Seed: 1, Span: 10,
		Photos: []sim.PhotoEvent{{Time: 1, Node: 1, Photo: big}},
	}
	scheme := New(DefaultConfig())
	runScheme(t, cfg, scheme)
	if scheme.w.Storage(1).Len() != 0 {
		t.Fatal("oversized photo must be rejected")
	}
}

func TestDeliveryProbabilityOrdering(t *testing.T) {
	// Node 1 regularly meets the CC, node 2 never does. At a 1–2 contact,
	// node 1 must select first (AFirst in the reallocation), observable via
	// its storage priority: with capacity for only one photo each and two
	// available views, node 1 takes the first pick.
	tr := &trace.Trace{Nodes: 2, Contacts: []trace.Contact{
		{Start: 50, End: 60, A: 1, B: 0},
		{Start: 100, End: 110, A: 1, B: 2},
	}}
	cfg := sim.Config{
		Trace: tr, Map: poiMap(), StorageBytes: 4 * mb, Seed: 1,
		Photos: []sim.PhotoEvent{
			{Time: 70, Node: 2, Photo: viewFrom(2, 0, 0)},
		},
	}
	scheme := New(DefaultConfig())
	runScheme(t, cfg, scheme)
	// Node 1 (gateway-ish) should have pulled the photo; node 2 keeps its
	// copy too (node 1 is not certain to deliver).
	if !scheme.w.Storage(1).Has(model.MakePhotoID(2, 0)) {
		t.Fatal("higher-probability node did not receive the photo")
	}
	p1 := scheme.nodes[1].table.DeliveryProb(200)
	p2 := scheme.nodes[2].table.DeliveryProb(200)
	if p1 <= p2 {
		t.Fatalf("p1 = %v should exceed p2 = %v", p1, p2)
	}
}

func TestMetadataValidityExpires(t *testing.T) {
	// After many contacts node 1's rate estimate is high; a third node's
	// stale metadata must eventually drop from its cache.
	cfgC := DefaultConfig()
	s := New(cfgC)
	tr := &trace.Trace{Nodes: 3, Contacts: []trace.Contact{
		{Start: 100, End: 110, A: 1, B: 3},
		{Start: 200, End: 210, A: 1, B: 3}, // node 3's rate becomes known
		{Start: 300, End: 310, A: 1, B: 2},
		{Start: 400, End: 410, A: 1, B: 2},
		{Start: 1e7, End: 1e7 + 10, A: 1, B: 2}, // far in the future
	}}
	cfg := sim.Config{Trace: tr, Map: poiMap(), StorageBytes: 8 * mb, Seed: 1,
		Photos: []sim.PhotoEvent{{Time: 1, Node: 3, Photo: viewFrom(3, 0, 0)}},
	}
	runScheme(t, cfg, s)
	if _, ok := s.nodes[1].cache.Get(3); ok {
		t.Fatal("stale third-party metadata should have been dropped")
	}
}

func TestMinQualityFilter(t *testing.T) {
	tr := &trace.Trace{Nodes: 1}
	blurry := viewFrom(1, 0, 0)
	blurry.Quality = 0.2
	sharp := viewFrom(1, 1, 90)
	sharp.Quality = 0.9
	unassessed := viewFrom(1, 2, 180) // Quality 0: accepted
	cfg := sim.Config{
		Trace: tr, Map: poiMap(), StorageBytes: 20 * mb, Seed: 1, Span: 10,
		Photos: []sim.PhotoEvent{
			{Time: 1, Node: 1, Photo: blurry},
			{Time: 2, Node: 1, Photo: sharp},
			{Time: 3, Node: 1, Photo: unassessed},
		},
	}
	c := DefaultConfig()
	c.MinQuality = 0.5
	scheme := New(c)
	runScheme(t, cfg, scheme)
	st := scheme.w.Storage(1)
	if st.Has(blurry.ID) {
		t.Fatal("blurry photo must be filtered at capture")
	}
	if !st.Has(sharp.ID) || !st.Has(unassessed.ID) {
		t.Fatal("qualified photos must be stored")
	}
	// With the filter disabled everything is stored.
	scheme2 := New(DefaultConfig())
	runScheme(t, cfg, scheme2)
	if scheme2.w.Storage(1).Len() != 3 {
		t.Fatal("filter disabled but photos missing")
	}
}
