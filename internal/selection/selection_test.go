package selection

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"photodtn/internal/coverage"
	"photodtn/internal/geo"
	"photodtn/internal/model"
)

// Test fixture: a single PoI at the origin with effective angle 30°, and
// helpers to make photos viewing it from a given compass angle.
func poiMap() *coverage.Map {
	return coverage.NewMap([]model.PoI{model.NewPoI(0, geo.Vec{})}, geo.Radians(30))
}

// cacheOf returns a fresh footprint cache over the map.
func cacheOf(m *coverage.Map) *coverage.FootprintCache { return coverage.NewFootprintCache(m) }

// viewFrom makes a photo standing at compass angle deg (degrees) from the
// PoI, looking back at it. Its aspect arc is centred at deg with ±30°.
func viewFrom(owner model.NodeID, seq uint32, deg float64) model.Photo {
	loc := geo.FromAngle(geo.Radians(deg)).Scale(60)
	return model.Photo{
		ID:          model.MakePhotoID(owner, seq),
		Owner:       owner,
		Location:    loc,
		Range:       120,
		FOV:         geo.Radians(60),
		Orientation: geo.Radians(deg + 180),
		Size:        4 << 20,
	}
}

// farAway makes a photo that covers nothing.
func farAway(owner model.NodeID, seq uint32) model.Photo {
	p := viewFrom(owner, seq, 0)
	p.Location = geo.Vec{X: 1e6, Y: 1e6}
	return p
}

func covEq(t *testing.T, got, want coverage.Coverage, tol float64) {
	t.Helper()
	if math.Abs(got.Point-want.Point) > tol || math.Abs(got.Aspect-want.Aspect) > tol {
		t.Fatalf("coverage = %v, want %v", got, want)
	}
}

func TestExpectedCoverageFormula2(t *testing.T) {
	// Reproduces the m=3 expansion of formula (2) in §III-C.
	m := poiMap()
	f0 := model.PhotoList{viewFrom(0, 0, 0)}   // CC has the east view
	fa := model.PhotoList{viewFrom(1, 0, 90)}  // a has the north view
	fb := model.PhotoList{viewFrom(2, 0, 180)} // b has the west view
	pa, pb := 0.7, 0.4

	c0 := m.Of(f0)
	c0a := m.Of(append(f0.Clone(), fa...))
	c0b := m.Of(append(f0.Clone(), fb...))
	c0ab := m.Of(append(append(f0.Clone(), fa...), fb...))
	want := c0.Scale((1 - pa) * (1 - pb)).
		Add(c0a.Scale(pa * (1 - pb))).
		Add(c0b.Scale((1 - pa) * pb)).
		Add(c0ab.Scale(pa * pb))

	parts := []Participant{
		{Node: 1, Photos: fa, P: pa},
		{Node: 2, Photos: fb, P: pb},
	}
	covEq(t, ExactExpectedCoverage(m, f0, parts), want, 1e-9)
	covEq(t, ExpectedCoverage(m, DefaultConfig(), f0, parts), want, 1e-9)
}

func TestExpectedCoverageEdgeProbabilities(t *testing.T) {
	m := poiMap()
	fa := model.PhotoList{viewFrom(1, 0, 0)}
	// P = 1: deterministic.
	got := ExpectedCoverage(m, DefaultConfig(), nil, []Participant{{Node: 1, Photos: fa, P: 1}})
	covEq(t, got, m.Of(fa), 1e-9)
	// P = 0: contributes nothing.
	got = ExpectedCoverage(m, DefaultConfig(), nil, []Participant{{Node: 1, Photos: fa, P: 0}})
	covEq(t, got, coverage.Coverage{}, 1e-9)
}

func TestExpectedCoverageOverlapDiscount(t *testing.T) {
	// Two nodes holding the SAME view: expected coverage must account for
	// the overlap, i.e. be strictly less than the sum of individual
	// expectations.
	m := poiMap()
	pa, pb := 0.5, 0.5
	parts := []Participant{
		{Node: 1, Photos: model.PhotoList{viewFrom(1, 0, 0)}, P: pa},
		{Node: 2, Photos: model.PhotoList{viewFrom(2, 0, 0)}, P: pb},
	}
	got := ExactExpectedCoverage(m, nil, parts)
	solo := m.Of(model.PhotoList{viewFrom(1, 0, 0)})
	// P{at least one delivers} = 1 − 0.25 = 0.75.
	covEq(t, got, solo.Scale(0.75), 1e-9)
}

func TestMonteCarloApproximatesExact(t *testing.T) {
	m := poiMap()
	rng := rand.New(rand.NewSource(3))
	parts := make([]Participant, 0, 10)
	for i := 0; i < 10; i++ {
		parts = append(parts, Participant{
			Node:   model.NodeID(i + 1),
			Photos: model.PhotoList{viewFrom(model.NodeID(i+1), 0, rng.Float64()*360)},
			P:      0.2 + 0.6*rng.Float64(),
		})
	}
	exact := ExactExpectedCoverage(m, nil, parts)
	cfg := Config{ExactLimit: 0, Samples: 4000, Seed: 17}
	mc := ExpectedCoverage(m, cfg, nil, parts)
	if math.Abs(mc.Point-exact.Point) > 0.05*exact.Point {
		t.Fatalf("MC point %v too far from exact %v", mc.Point, exact.Point)
	}
	if math.Abs(mc.Aspect-exact.Aspect) > 0.05*exact.Aspect {
		t.Fatalf("MC aspect %v too far from exact %v", mc.Aspect, exact.Aspect)
	}
}

func TestEvaluatorScenarioCounts(t *testing.T) {
	m := poiMap()
	mk := func(n int, p float64) []Participant {
		parts := make([]Participant, 0, n)
		for i := 0; i < n; i++ {
			parts = append(parts, Participant{
				Node: model.NodeID(i + 1), P: p,
				Photos: model.PhotoList{viewFrom(model.NodeID(i+1), 0, float64(i*37))},
			})
		}
		return parts
	}
	fpc := cacheOf(m)
	toBG := func(parts []Participant) []bgNode {
		bg := make([]bgNode, 0, len(parts))
		for _, p := range parts {
			bg = append(bg, bgNode{p: p.P, fps: footprintsOf(fpc, p.Photos)})
		}
		return bg
	}
	cfg := Config{ExactLimit: 3, Samples: 10}
	// 3 nodes: exact, 2^3 = 8 scenarios.
	if got := NewEvaluator(m, cfg, nil, toBG(mk(3, 0.5))).Scenarios(); got != 8 {
		t.Fatalf("exact scenarios = %d, want 8", got)
	}
	// 4 nodes: sampled.
	if got := NewEvaluator(m, cfg, nil, toBG(mk(4, 0.5))).Scenarios(); got != 10 {
		t.Fatalf("sampled scenarios = %d, want 10", got)
	}
	// P=1 nodes fold into the base: still exact with one scenario.
	if got := NewEvaluator(m, cfg, nil, toBG(mk(6, 1))).Scenarios(); got != 1 {
		t.Fatalf("deterministic scenarios = %d, want 1", got)
	}
	// P=0 nodes are dropped.
	if got := NewEvaluator(m, cfg, nil, toBG(mk(6, 0))).Scenarios(); got != 1 {
		t.Fatalf("zero-prob scenarios = %d, want 1", got)
	}
}

func TestEvaluatorGainCommit(t *testing.T) {
	m := poiMap()
	ev := NewEvaluator(m, DefaultConfig(), nil, nil)
	east := m.Footprint(viewFrom(1, 0, 0))
	north := m.Footprint(viewFrom(1, 1, 90))

	g := ev.Gain(east)
	covEq(t, g, coverage.Coverage{Point: 1, Aspect: geo.Radians(60)}, 1e-9)
	ev.Commit(east)
	// Same arc again: zero gain.
	covEq(t, ev.Gain(east), coverage.Coverage{}, 1e-9)
	// Disjoint arc: aspect-only gain.
	covEq(t, ev.Gain(north), coverage.Coverage{Aspect: geo.Radians(60)}, 1e-9)
	covEq(t, ev.Expected(), coverage.Coverage{Point: 1, Aspect: geo.Radians(60)}, 1e-9)
}

func TestBuildPoolDedupesAndFilters(t *testing.T) {
	m := poiMap()
	shared := viewFrom(1, 0, 0)
	a := model.PhotoList{shared, farAway(1, 1)}
	b := model.PhotoList{shared, viewFrom(2, 0, 90)}
	pool := BuildPool(cacheOf(m), a, b)
	if len(pool) != 2 {
		t.Fatalf("pool size = %d, want 2 (dedup + irrelevant filter)", len(pool))
	}
	for _, it := range pool {
		if it.FP.IsEmpty() {
			t.Fatal("pool contains an irrelevant photo")
		}
	}
}

func TestGreedyFillPrefersDiversity(t *testing.T) {
	m := poiMap()
	ev := NewEvaluator(m, DefaultConfig(), nil, nil)
	pool := BuildPool(cacheOf(m), model.PhotoList{
		viewFrom(1, 0, 0),
		viewFrom(1, 1, 5),   // nearly duplicates the first
		viewFrom(1, 2, 180), // opposite side
	})
	sel := GreedyFill(ev, pool, 2*(4<<20))
	if len(sel) != 2 {
		t.Fatalf("selected %d photos, want 2", len(sel))
	}
	// Must pick the two opposite views, not the two near-duplicates.
	degs := map[uint32]bool{sel[0].ID.Seq(): true, sel[1].ID.Seq(): true}
	if !degs[0] || !degs[2] {
		t.Fatalf("selected %v, want photos 0 and 2", sel.IDs())
	}
}

func TestGreedyFillRespectsCapacity(t *testing.T) {
	m := poiMap()
	ev := NewEvaluator(m, DefaultConfig(), nil, nil)
	pool := BuildPool(cacheOf(m), model.PhotoList{
		viewFrom(1, 0, 0), viewFrom(1, 1, 90), viewFrom(1, 2, 180),
	})
	sel := GreedyFill(ev, pool, 4<<20) // room for exactly one
	if len(sel) != 1 {
		t.Fatalf("selected %d photos, want 1", len(sel))
	}
	if sel.TotalSize() > 4<<20 {
		t.Fatal("capacity exceeded")
	}
	if got := GreedyFill(NewEvaluator(m, DefaultConfig(), nil, nil), pool, 0); len(got) != 0 {
		t.Fatal("zero capacity must select nothing")
	}
}

func TestGreedyFillSkipsOversizedButContinues(t *testing.T) {
	m := poiMap()
	big := viewFrom(1, 0, 0)
	big.Size = 100 << 20
	small := viewFrom(1, 1, 90)
	ev := NewEvaluator(m, DefaultConfig(), nil, nil)
	pool := BuildPool(cacheOf(m), model.PhotoList{big, small})
	sel := GreedyFill(ev, pool, 8<<20)
	if len(sel) != 1 || sel[0].ID != small.ID {
		t.Fatalf("selected %v, want only the small photo", sel.IDs())
	}
}

func TestGreedyFillStopsAtNoBenefit(t *testing.T) {
	m := poiMap()
	// CC already holds the east view; pool has a duplicate east view and a
	// fresh north view.
	cc := model.PhotoList{viewFrom(0, 0, 0)}
	ev := NewEvaluator(m, DefaultConfig(), footprintsOf(cacheOf(m), cc), nil)
	pool := BuildPool(cacheOf(m), model.PhotoList{viewFrom(1, 0, 0), viewFrom(1, 1, 90)})
	sel := GreedyFill(ev, pool, 100<<20)
	if len(sel) != 1 {
		t.Fatalf("selected %d photos, want 1 (duplicate must be dropped)", len(sel))
	}
	if sel[0].ID.Seq() != 1 {
		t.Fatalf("selected %v, want the north view", sel.IDs())
	}
}

func TestGreedyFillSelectionOrderIsByGain(t *testing.T) {
	m := poiMap()
	// A second PoI far east; one photo covers both PoIs, others cover one.
	m2 := coverage.NewMap([]model.PoI{
		model.NewPoI(0, geo.Vec{}),
		model.NewPoI(1, geo.Vec{X: 40}),
	}, geo.Radians(30))
	double := model.Photo{ // east of both, looking west, covers both PoIs
		ID: model.MakePhotoID(1, 9), Owner: 1,
		Location: geo.Vec{X: 90}, Range: 120,
		FOV: geo.Radians(60), Orientation: geo.Radians(180), Size: 4 << 20,
	}
	singleN := viewFrom(1, 1, 90)
	ev := NewEvaluator(m2, DefaultConfig(), nil, nil)
	pool := BuildPool(cacheOf(m2), model.PhotoList{singleN, double})
	sel := GreedyFill(ev, pool, 100<<20)
	if len(sel) < 2 || sel[0].ID != double.ID {
		t.Fatalf("selection order %v: the two-PoI photo must come first", sel.IDs())
	}
	_ = m
}

func TestReallocateHigherProbabilityFirst(t *testing.T) {
	m := poiMap()
	a := Alloc{Node: 1, P: 0.2, Capacity: 8 << 20, Photos: model.PhotoList{viewFrom(1, 0, 0)}}
	b := Alloc{Node: 2, P: 0.9, Capacity: 8 << 20, Photos: model.PhotoList{viewFrom(2, 0, 90)}}
	res := Reallocate(cacheOf(m), DefaultConfig(), nil, nil, a, b)
	if res.AFirst {
		t.Fatal("node b has higher P and must select first")
	}
	// b (capacity 2) should take both useful views.
	if len(res.BSel) != 2 {
		t.Fatalf("BSel = %v, want both views", res.BSel.IDs())
	}
}

func TestReallocateSecondAvoidsLikelyDuplicates(t *testing.T) {
	m := poiMap()
	// First node delivers almost surely and will take both views; the
	// second node has room for one photo. Duplicating is still worth a tiny
	// expected gain (first node may fail), so with equal-size photos the
	// second node picks SOME photo — but when the first node's delivery is
	// certain, gains are zero and the second node keeps nothing.
	a := Alloc{Node: 1, P: 1.0, Capacity: 16 << 20, Photos: model.PhotoList{viewFrom(1, 0, 0), viewFrom(1, 1, 90)}}
	b := Alloc{Node: 2, P: 0.3, Capacity: 4 << 20, Photos: model.PhotoList{viewFrom(2, 0, 0)}}
	res := Reallocate(cacheOf(m), DefaultConfig(), nil, nil, a, b)
	if !res.AFirst {
		t.Fatal("node a must select first")
	}
	if len(res.ASel) != 2 {
		t.Fatalf("ASel = %v, want both views", res.ASel.IDs())
	}
	if len(res.BSel) != 0 {
		t.Fatalf("BSel = %v, want empty (everything surely delivered by a)", res.BSel.IDs())
	}
}

func TestReallocateSecondKeepsBackupWhenFirstUnreliable(t *testing.T) {
	m := poiMap()
	a := Alloc{Node: 1, P: 0.1, Capacity: 8 << 20, Photos: model.PhotoList{viewFrom(1, 0, 0), viewFrom(1, 1, 90)}}
	b := Alloc{Node: 2, P: 0.05, Capacity: 8 << 20, Photos: nil}
	res := Reallocate(cacheOf(m), DefaultConfig(), nil, nil, a, b)
	// First node is unreliable, so b should hold backup copies of the same
	// photos (the paper's y_j = z_j = 1 case).
	if len(res.BSel) != 2 {
		t.Fatalf("BSel = %v, want 2 backup photos", res.BSel.IDs())
	}
}

func TestReallocateDropsDeliveredAndIrrelevant(t *testing.T) {
	m := poiMap()
	cc := model.PhotoList{viewFrom(0, 0, 0)} // east view already delivered
	a := Alloc{Node: 1, P: 0.5, Capacity: 100 << 20, Photos: model.PhotoList{
		viewFrom(1, 0, 0), // duplicate of delivered
		farAway(1, 1),     // irrelevant
		viewFrom(1, 2, 180),
	}}
	b := Alloc{Node: 2, P: 0.4, Capacity: 100 << 20, Photos: nil}
	res := Reallocate(cacheOf(m), DefaultConfig(), cc, nil, a, b)
	if len(res.ASel) != 1 || res.ASel[0].ID.Seq() != 2 {
		t.Fatalf("ASel = %v, want only the west view", res.ASel.IDs())
	}
}

func TestReallocateConsidersBackground(t *testing.T) {
	m := poiMap()
	// A background node certainly delivering the east view: the pair should
	// prioritise the north view.
	bgPart := []Participant{{Node: 7, P: 1.0, Photos: model.PhotoList{viewFrom(7, 0, 0)}}}
	a := Alloc{Node: 1, P: 0.5, Capacity: 4 << 20, Photos: model.PhotoList{viewFrom(1, 0, 0), viewFrom(1, 1, 90)}}
	b := Alloc{Node: 2, P: 0.4, Capacity: 4 << 20, Photos: nil}
	res := Reallocate(cacheOf(m), DefaultConfig(), nil, bgPart, a, b)
	if len(res.ASel) != 1 || res.ASel[0].ID.Seq() != 1 {
		t.Fatalf("ASel = %v, want the north view only", res.ASel.IDs())
	}
}

func TestReallocateIgnoresContactPairInBackground(t *testing.T) {
	m := poiMap()
	// A stale background entry for node 1 itself must be ignored, otherwise
	// its photos would be double counted.
	bgPart := []Participant{{Node: 1, P: 0.99, Photos: model.PhotoList{viewFrom(1, 0, 0)}}}
	a := Alloc{Node: 1, P: 0.5, Capacity: 4 << 20, Photos: model.PhotoList{viewFrom(1, 0, 0)}}
	b := Alloc{Node: 2, P: 0.4, Capacity: 4 << 20, Photos: nil}
	res := Reallocate(cacheOf(m), DefaultConfig(), nil, bgPart, a, b)
	if len(res.ASel) != 1 {
		t.Fatalf("ASel = %v: the photo must still be selected", res.ASel.IDs())
	}
}

func TestSelectForUpload(t *testing.T) {
	m := poiMap()
	cc := model.PhotoList{viewFrom(0, 0, 0)}
	node := model.PhotoList{
		viewFrom(1, 0, 0),  // already delivered content
		viewFrom(1, 1, 90), // new
		farAway(1, 2),      // irrelevant
	}
	sel := SelectForUpload(cacheOf(m), DefaultConfig(), cc, node)
	if len(sel) != 1 || sel[0].ID.Seq() != 1 {
		t.Fatalf("upload selection = %v, want only the north view", sel.IDs())
	}
}

func TestGreedyDeterministic(t *testing.T) {
	m := poiMap()
	rng := rand.New(rand.NewSource(9))
	var photos model.PhotoList
	for i := 0; i < 40; i++ {
		photos = append(photos, viewFrom(1, uint32(i), rng.Float64()*360))
	}
	run := func() []model.PhotoID {
		ev := NewEvaluator(m, DefaultConfig(), nil, nil)
		return GreedyFill(ev, BuildPool(cacheOf(m), photos), 10*(4<<20)).IDs()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic selection size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic selection at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: the greedy never exceeds capacity and its selection value is
// monotone in capacity.
func TestGreedyCapacityProperty(t *testing.T) {
	m := poiMap()
	rng := rand.New(rand.NewSource(77))
	var photos model.PhotoList
	for i := 0; i < 60; i++ {
		p := viewFrom(1, uint32(i), rng.Float64()*360)
		p.Size = int64(1+rng.Intn(8)) << 20
		photos = append(photos, p)
	}
	pool := BuildPool(cacheOf(m), photos)
	prev := coverage.Coverage{}
	for _, capMB := range []int64{0, 4, 8, 16, 32, 64, 128} {
		ev := NewEvaluator(m, DefaultConfig(), nil, nil)
		sel := GreedyFill(ev, pool, capMB<<20)
		if sel.TotalSize() > capMB<<20 {
			t.Fatalf("capacity %dMB exceeded: %d bytes", capMB, sel.TotalSize())
		}
		cov := m.Of(sel)
		if cov.Less(prev) {
			t.Fatalf("capacity %dMB: coverage %v below smaller capacity's %v", capMB, cov, prev)
		}
		prev = cov
	}
}

// Property: expected coverage is monotone in each delivery probability.
func TestExpectedCoverageMonotoneInP(t *testing.T) {
	m := poiMap()
	photos := model.PhotoList{viewFrom(1, 0, 0), viewFrom(1, 1, 90)}
	prev := coverage.Coverage{}
	for _, p := range []float64{0, 0.2, 0.5, 0.8, 1} {
		got := ExactExpectedCoverage(m, nil, []Participant{{Node: 1, Photos: photos, P: p}})
		if got.Less(prev) {
			t.Fatalf("expected coverage decreased at p=%v: %v < %v", p, got, prev)
		}
		prev = got
	}
}

// Property: expected coverage never exceeds the all-delivered union
// coverage and never falls below the command center's own coverage.
func TestExpectedCoverageBounds(t *testing.T) {
	m := poiMap()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		cc := model.PhotoList{viewFrom(0, uint32(trial), rng.Float64()*360)}
		var parts []Participant
		union := cc.Clone()
		for i := 0; i < 4; i++ {
			ph := model.PhotoList{viewFrom(model.NodeID(i+1), uint32(trial), rng.Float64()*360)}
			parts = append(parts, Participant{Node: model.NodeID(i + 1), Photos: ph, P: rng.Float64()})
			union = append(union, ph...)
		}
		ex := ExactExpectedCoverage(m, cc, parts)
		lo, hi := m.Of(cc), m.Of(union)
		if ex.Less(lo) {
			t.Fatalf("trial %d: expected %v below floor %v", trial, ex, lo)
		}
		if hi.Less(ex) {
			t.Fatalf("trial %d: expected %v above ceiling %v", trial, ex, hi)
		}
	}
}

// bruteForceBest enumerates all subsets of the pool that fit k photos and
// returns the best coverage achievable — the exact optimum of problem (3)
// for equal-size photos.
func bruteForceBest(m *coverage.Map, pool []Item, k int) coverage.Coverage {
	best := coverage.Coverage{}
	n := len(pool)
	for mask := 0; mask < 1<<n; mask++ {
		if bits.OnesCount(uint(mask)) > k {
			continue
		}
		st := m.NewState()
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				st.Add(pool[i].FP)
			}
		}
		if best.Less(st.Coverage()) {
			best = st.Coverage()
		}
	}
	return best
}

// TestGreedyNearOptimal checks the classic submodular-maximisation bound:
// with equal photo sizes (cardinality constraint), the greedy achieves at
// least (1 − 1/e) of the optimal value on random instances — and usually
// far more.
func TestGreedyNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	pois := []model.PoI{
		model.NewPoI(0, geo.Vec{}),
		model.NewPoI(1, geo.Vec{X: 80}),
		model.NewPoI(2, geo.Vec{Y: 80}),
	}
	m := coverage.NewMap(pois, geo.Radians(30))
	scalar := func(c coverage.Coverage) float64 {
		// Lexicographic proxy: a point outweighs any possible total aspect
		// (3 PoIs × 2π < 1000).
		return c.Point*1000 + c.Aspect
	}
	const bound = 1 - 1/math.E
	for trial := 0; trial < 20; trial++ {
		var photos model.PhotoList
		for i := 0; i < 10; i++ {
			loc := geo.Vec{X: rng.Float64()*300 - 100, Y: rng.Float64()*300 - 100}
			p := viewFrom(1, uint32(i), 0)
			p.Location = loc
			p.Orientation = rng.Float64() * geo.TwoPi
			photos = append(photos, p)
		}
		pool := BuildPool(cacheOf(m), photos)
		if len(pool) == 0 {
			continue
		}
		k := 2 + rng.Intn(3)
		opt := bruteForceBest(m, pool, k)
		ev := NewEvaluator(m, DefaultConfig(), nil, nil)
		sel := GreedyFill(ev, pool, int64(k)*(4<<20))
		got := m.Of(sel)
		if scalar(got) < bound*scalar(opt)-1e-9 {
			t.Fatalf("trial %d: greedy %v below (1-1/e)·optimal %v", trial, got, opt)
		}
	}
}
