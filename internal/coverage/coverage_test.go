package coverage

import (
	"math"
	"math/rand"
	"testing"

	"photodtn/internal/geo"
	"photodtn/internal/model"
)

const eps = 1e-9

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// photoAt builds a photo at loc looking along dir (radians) with the given
// range and a 60° FOV.
func photoAt(id uint32, loc geo.Vec, dir, rng float64) model.Photo {
	return model.Photo{
		ID:          model.MakePhotoID(1, id),
		Owner:       1,
		Location:    loc,
		Range:       rng,
		FOV:         geo.Radians(60),
		Orientation: dir,
		Size:        4 << 20,
	}
}

func singlePoIMap(theta float64) *Map {
	return NewMap([]model.PoI{model.NewPoI(0, geo.Vec{X: 0, Y: 0})}, theta)
}

func TestCoverageCmp(t *testing.T) {
	tests := []struct {
		name string
		a, b Coverage
		want int
	}{
		{"equal", Coverage{1, 2}, Coverage{1, 2}, 0},
		{"point dominates", Coverage{2, 0}, Coverage{1, 100}, 1},
		{"aspect breaks tie", Coverage{1, 3}, Coverage{1, 2}, 1},
		{"less point", Coverage{0, 100}, Coverage{1, 0}, -1},
		{"epsilon equal", Coverage{1, 2}, Coverage{1 + 1e-12, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Cmp(tt.b); got != tt.want {
				t.Fatalf("Cmp = %d, want %d", got, tt.want)
			}
			if got := tt.b.Cmp(tt.a); got != -tt.want {
				t.Fatalf("reverse Cmp = %d, want %d", got, -tt.want)
			}
		})
	}
}

func TestCoverageArithmetic(t *testing.T) {
	a := Coverage{1, 2}
	if got := a.Add(Coverage{3, 4}); got != (Coverage{4, 6}) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(Coverage{0.5, 1}); got != (Coverage{0.5, 1}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(0.5); got != (Coverage{0.5, 1}) {
		t.Fatalf("Scale = %v", got)
	}
	if !(Coverage{}).IsZero() || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestFootprintCoversPoI(t *testing.T) {
	m := singlePoIMap(geo.Radians(30))
	// Camera 50m east of the PoI, looking west: PoI straight ahead.
	p := photoAt(1, geo.Vec{X: 50}, math.Pi, 100)
	fp := m.Footprint(p)
	if len(fp.Entries) != 1 {
		t.Fatalf("footprint entries = %d, want 1", len(fp.Entries))
	}
	e := fp.Entries[0]
	if e.PoI != 0 {
		t.Fatalf("covered PoI = %d", e.PoI)
	}
	// View direction PoI→camera is east (0); arc = [−30°, +30°].
	if !e.Arc.Contains(geo.Radians(29)) || !e.Arc.Contains(geo.Radians(331)) {
		t.Fatalf("arc %v not centred on view direction", e.Arc)
	}
	if !almostEqual(e.Arc.Width, geo.Radians(60), eps) {
		t.Fatalf("arc width = %v, want 60°", geo.Degrees(e.Arc.Width))
	}
}

func TestFootprintMisses(t *testing.T) {
	m := singlePoIMap(geo.Radians(30))
	tests := []struct {
		name  string
		photo model.Photo
	}{
		{"too far", photoAt(1, geo.Vec{X: 200}, math.Pi, 100)},
		{"looking away", photoAt(2, geo.Vec{X: 50}, 0, 100)},
		{"outside fov", photoAt(3, geo.Vec{X: 50, Y: 50}, math.Pi, 100)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if fp := m.Footprint(tt.photo); !fp.IsEmpty() {
				t.Fatalf("expected empty footprint, got %+v", fp)
			}
		})
	}
}

func TestStateAddAndAspectUnion(t *testing.T) {
	m := singlePoIMap(geo.Radians(30))
	st := m.NewState()

	// First photo views the PoI from the east.
	g1 := st.AddPhoto(photoAt(1, geo.Vec{X: 50}, math.Pi, 100))
	if g1.Point != 1 || !almostEqual(g1.Aspect, geo.Radians(60), eps) {
		t.Fatalf("first gain = %v", g1)
	}
	// Identical second photo: zero gain.
	g2 := st.AddPhoto(photoAt(2, geo.Vec{X: 50}, math.Pi, 100))
	if g2.Point != 0 || !almostEqual(g2.Aspect, 0, eps) {
		t.Fatalf("duplicate gain = %v", g2)
	}
	// Third photo views from the north: disjoint arc, no new point.
	g3 := st.AddPhoto(photoAt(3, geo.Vec{Y: 50}, -math.Pi/2, 100))
	if g3.Point != 0 || !almostEqual(g3.Aspect, geo.Radians(60), eps) {
		t.Fatalf("north gain = %v", g3)
	}
	// Fourth photo views from 30°: overlaps the east arc by half.
	loc := geo.FromAngle(geo.Radians(30)).Scale(50)
	g4 := st.AddPhoto(photoAt(4, loc, geo.Radians(210), 100))
	if g4.Point != 0 || !almostEqual(g4.Aspect, geo.Radians(30), 1e-6) {
		t.Fatalf("overlap gain = %v, want 30° aspect", g4)
	}
	want := Coverage{Point: 1, Aspect: geo.Radians(150)}
	if st.Coverage().Cmp(want) != 0 {
		t.Fatalf("total = %v, want %v", st.Coverage(), want)
	}
	if st.NumCovered() != 1 || !st.PoICovered(0) {
		t.Fatal("PoI cover bookkeeping wrong")
	}
	if !almostEqual(st.AspectOf(0), geo.Radians(150), 1e-6) {
		t.Fatalf("AspectOf = %v", geo.Degrees(st.AspectOf(0)))
	}
}

func TestStateGainMatchesAdd(t *testing.T) {
	pois := []model.PoI{
		model.NewPoI(0, geo.Vec{X: 0, Y: 0}),
		model.NewPoI(1, geo.Vec{X: 300, Y: 0}),
		model.NewPoI(2, geo.Vec{X: 0, Y: 300}),
	}
	m := NewMap(pois, geo.Radians(30))
	rng := rand.New(rand.NewSource(42))
	st := m.NewState()
	for i := 0; i < 200; i++ {
		p := photoAt(uint32(i),
			geo.Vec{X: rng.Float64()*600 - 150, Y: rng.Float64()*600 - 150},
			rng.Float64()*geo.TwoPi, 80+rng.Float64()*120)
		fp := m.Footprint(p)
		gain := st.Gain(fp)
		got := st.Add(fp)
		if gain.Cmp(got) != 0 {
			t.Fatalf("photo %d: Gain %v != realised %v", i, gain, got)
		}
	}
}

func TestStateUnion(t *testing.T) {
	m := singlePoIMap(geo.Radians(30))
	a := m.NewState()
	a.AddPhoto(photoAt(1, geo.Vec{X: 50}, math.Pi, 100)) // east view
	b := m.NewState()
	b.AddPhoto(photoAt(2, geo.Vec{Y: 50}, -math.Pi/2, 100)) // north view
	b.AddPhoto(photoAt(3, geo.Vec{X: 50}, math.Pi, 100))    // east view (dup of a)

	a.Union(b)
	want := Coverage{Point: 1, Aspect: geo.Radians(120)}
	if a.Coverage().Cmp(want) != 0 {
		t.Fatalf("union coverage = %v, want %v", a.Coverage(), want)
	}
	// Union with nil is a no-op.
	a.Union(nil)
	if a.Coverage().Cmp(want) != 0 {
		t.Fatal("nil union changed coverage")
	}
}

func TestStateUnionMatchesBatch(t *testing.T) {
	pois := make([]model.PoI, 0, 20)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		pois = append(pois, model.NewPoI(i, geo.Vec{X: rng.Float64() * 2000, Y: rng.Float64() * 2000}))
	}
	m := NewMap(pois, geo.Radians(30))
	var all model.PhotoList
	mk := func(n int) (model.PhotoList, *State) {
		st := m.NewState()
		var l model.PhotoList
		for i := 0; i < n; i++ {
			p := photoAt(uint32(len(all)),
				geo.Vec{X: rng.Float64() * 2000, Y: rng.Float64() * 2000},
				rng.Float64()*geo.TwoPi, 100+rng.Float64()*100)
			l = append(l, p)
			all = append(all, p)
			st.AddPhoto(p)
		}
		return l, st
	}
	_, sa := mk(40)
	_, sb := mk(40)
	sa.Union(sb)
	direct := m.Of(all)
	if sa.Coverage().Cmp(direct) != 0 {
		t.Fatalf("union %v != direct %v", sa.Coverage(), direct)
	}
}

func TestStateCloneIsolation(t *testing.T) {
	m := singlePoIMap(geo.Radians(30))
	a := m.NewState()
	a.AddPhoto(photoAt(1, geo.Vec{X: 50}, math.Pi, 100))
	c := a.Clone()
	c.AddPhoto(photoAt(2, geo.Vec{Y: 50}, -math.Pi/2, 100))
	if a.Coverage().Cmp(Coverage{1, geo.Radians(60)}) != 0 {
		t.Fatalf("clone mutation leaked: %v", a.Coverage())
	}
	if c.Coverage().Cmp(Coverage{1, geo.Radians(120)}) != 0 {
		t.Fatalf("clone missing addition: %v", c.Coverage())
	}
}

func TestStateReset(t *testing.T) {
	m := singlePoIMap(geo.Radians(30))
	st := m.NewState()
	st.AddPhoto(photoAt(1, geo.Vec{X: 50}, math.Pi, 100))
	st.Reset()
	if !st.Coverage().IsZero() || st.NumCovered() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestWeightedPoIs(t *testing.T) {
	pois := []model.PoI{
		{ID: 0, Location: geo.Vec{X: 0}, Weight: 5},
		{ID: 1, Location: geo.Vec{X: 1000}, Weight: 1},
	}
	m := NewMap(pois, geo.Radians(30))
	st := m.NewState()
	g := st.AddPhoto(photoAt(1, geo.Vec{X: 50}, math.Pi, 100))
	if g.Point != 5 || !almostEqual(g.Aspect, 5*geo.Radians(60), eps) {
		t.Fatalf("weighted gain = %v", g)
	}
	if m.TotalWeight() != 6 {
		t.Fatalf("TotalWeight = %v", m.TotalWeight())
	}
	pt, as := m.Normalized(st.Coverage())
	if !almostEqual(pt, 5.0/6, eps) || !almostEqual(as, 5*geo.Radians(60)/6, eps) {
		t.Fatalf("Normalized = %v %v", pt, as)
	}
}

func TestNonPositiveWeightDefaultsToUnit(t *testing.T) {
	m := NewMap([]model.PoI{{ID: 0, Location: geo.Vec{}, Weight: -3}}, geo.Radians(30))
	if m.PoI(0).Weight != 1 {
		t.Fatalf("weight = %v, want 1", m.PoI(0).Weight)
	}
}

func TestSoloCoverage(t *testing.T) {
	pois := []model.PoI{
		model.NewPoI(0, geo.Vec{X: 0}),
		model.NewPoI(1, geo.Vec{X: 30}),
	}
	m := NewMap(pois, geo.Radians(30))
	// Camera east of both PoIs, looking west, covers both.
	p := photoAt(1, geo.Vec{X: 80}, math.Pi, 100)
	c := m.SoloCoverage(p)
	if c.Point != 2 || !almostEqual(c.Aspect, 2*geo.Radians(60), eps) {
		t.Fatalf("SoloCoverage = %v", c)
	}
	// Irrelevant photo has zero solo coverage.
	if c := m.SoloCoverage(photoAt(2, geo.Vec{X: 5000}, 0, 100)); !c.IsZero() {
		t.Fatalf("irrelevant SoloCoverage = %v", c)
	}
}

func TestMapOfEmpty(t *testing.T) {
	m := singlePoIMap(geo.Radians(30))
	if c := m.Of(nil); !c.IsZero() {
		t.Fatalf("empty collection coverage = %v", c)
	}
}

func TestEmptyMap(t *testing.T) {
	m := NewMap(nil, geo.Radians(30))
	p := photoAt(1, geo.Vec{X: 50}, math.Pi, 100)
	if fp := m.Footprint(p); !fp.IsEmpty() {
		t.Fatal("footprint on empty map should be empty")
	}
	pt, as := m.Normalized(Coverage{})
	if pt != 0 || as != 0 {
		t.Fatal("Normalized on empty map should be zero")
	}
}

// TestGridMatchesBruteForce cross-checks the spatial grid against a direct
// scan over all PoIs for many random photos.
func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pois := make([]model.PoI, 0, 250)
	for i := 0; i < 250; i++ {
		pois = append(pois, model.NewPoI(i, geo.Vec{X: rng.Float64() * 6300, Y: rng.Float64() * 6300}))
	}
	m := NewMap(pois, geo.Radians(30))
	for trial := 0; trial < 500; trial++ {
		p := photoAt(uint32(trial),
			geo.Vec{X: rng.Float64()*7000 - 350, Y: rng.Float64()*7000 - 350},
			rng.Float64()*geo.TwoPi, 50+rng.Float64()*200)
		fp := m.Footprint(p)
		got := make(map[int]bool, len(fp.Entries))
		for _, e := range fp.Entries {
			got[e.PoI] = true
		}
		sec := p.Sector()
		for i, poi := range pois {
			want := sec.Contains(poi.Location)
			if got[i] != want {
				t.Fatalf("trial %d PoI %d: grid=%v brute=%v", trial, i, got[i], want)
			}
		}
	}
}

func TestMapCellSizeVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pois := make([]model.PoI, 0, 50)
	for i := 0; i < 50; i++ {
		pois = append(pois, model.NewPoI(i, geo.Vec{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}))
	}
	photos := make(model.PhotoList, 0, 30)
	for i := 0; i < 30; i++ {
		photos = append(photos, photoAt(uint32(i),
			geo.Vec{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			rng.Float64()*geo.TwoPi, 100+rng.Float64()*100))
	}
	base := NewMap(pois, geo.Radians(30), WithCellSize(50)).Of(photos)
	for _, cell := range []float64{10, 100, 1000, 10000, -1} {
		got := NewMap(pois, geo.Radians(30), WithCellSize(cell)).Of(photos)
		if got.Cmp(base) != 0 {
			t.Fatalf("cell %v: coverage %v != %v", cell, got, base)
		}
	}
}

// TestCoverageMonotoneAndOrderIndependent: adding photos never decreases
// coverage, and the total is independent of insertion order.
func TestCoverageMonotoneAndOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pois := make([]model.PoI, 0, 30)
	for i := 0; i < 30; i++ {
		pois = append(pois, model.NewPoI(i, geo.Vec{X: rng.Float64() * 1500, Y: rng.Float64() * 1500}))
	}
	m := NewMap(pois, geo.Radians(30))
	photos := make(model.PhotoList, 0, 60)
	for i := 0; i < 60; i++ {
		photos = append(photos, photoAt(uint32(i),
			geo.Vec{X: rng.Float64() * 1500, Y: rng.Float64() * 1500},
			rng.Float64()*geo.TwoPi, 100+rng.Float64()*100))
	}
	st := m.NewState()
	prev := Coverage{}
	for _, p := range photos {
		st.AddPhoto(p)
		if st.Coverage().Less(prev) {
			t.Fatal("coverage decreased")
		}
		prev = st.Coverage()
	}
	shuffled := photos.Clone()
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if got := m.Of(shuffled); got.Cmp(prev) != 0 {
		t.Fatalf("order dependence: %v vs %v", got, prev)
	}
}

// TestAspectGainSubmodular: the aspect gain of a fixed photo never grows as
// the base collection grows (diminishing returns), which the greedy
// selection relies on.
func TestAspectGainSubmodular(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := singlePoIMap(geo.Radians(30))
	probe := photoAt(1000, geo.Vec{X: 60}, math.Pi, 100)
	fp := m.Footprint(probe)
	st := m.NewState()
	prevGain := st.Gain(fp)
	for i := 0; i < 40; i++ {
		loc := geo.FromAngle(rng.Float64() * geo.TwoPi).Scale(40 + rng.Float64()*50)
		st.AddPhoto(photoAt(uint32(i), loc, loc.Angle()+math.Pi, 150))
		g := st.Gain(fp)
		if g.Cmp(prevGain) > 0 {
			t.Fatalf("gain increased from %v to %v as base grew", prevGain, g)
		}
		prevGain = g
	}
}
