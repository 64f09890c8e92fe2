package coverage

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"photodtn/internal/geo"
	"photodtn/internal/model"
)

// deltaInstance is a randomized DeltaSet workload plus the brute-force
// oracle: one fully materialized clone of the base per scenario.
type deltaInstance struct {
	m      *Map
	ds     *DeltaSet
	oracle []*State // oracle[i] mirrors scenario i
	ws     []float64
	probes []Footprint
}

// newDeltaInstance builds a random map (weighted PoIs, one aspect profile to
// exercise the rare path), a base of basePhotos, nScens scenarios each with
// a few random footprints, and probe footprints for gain queries.
func newDeltaInstance(t *testing.T, seed int64, pois, basePhotos, nScens int) *deltaInstance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pl := make([]model.PoI, pois)
	for i := range pl {
		pl[i] = model.NewPoI(i, geo.Vec{X: rng.Float64() * 800, Y: rng.Float64() * 800})
		if rng.Intn(3) == 0 {
			pl[i].Weight = 1 + 2*rng.Float64()
		}
	}
	m := NewMap(pl, geo.Radians(30),
		WithAspectProfile(0, AspectProfile{
			Base:     0.5,
			Segments: []WeightedArc{{Arc: ArcAroundDeg(90, 45), Weight: 2}},
		}))

	randomFP := func() Footprint {
		p := photoAt(uint32(rng.Uint32()), geo.Vec{X: rng.Float64() * 800, Y: rng.Float64() * 800},
			rng.Float64()*geo.TwoPi, 60+rng.Float64()*60)
		return m.Footprint(p)
	}

	base := m.AcquireState()
	for i := 0; i < basePhotos; i++ {
		base.Add(randomFP())
	}
	inst := &deltaInstance{m: m, ds: &DeltaSet{}}
	inst.ds.Reuse(base)
	var r Residual
	for s := 0; s < nScens; s++ {
		w := rng.Float64()
		inst.ws = append(inst.ws, w)
		si := inst.ds.AddScenario(w)
		oracle := base.Clone()
		for k := rng.Intn(4); k >= 0; k-- {
			fp := randomFP()
			inst.ds.CompileResidual(fp, &r)
			inst.ds.AddResidual(si, &r)
			oracle.Add(fp)
		}
		inst.oracle = append(inst.oracle, oracle)
	}
	for i := 0; i < 24; i++ {
		inst.probes = append(inst.probes, randomFP())
	}
	inst.probes = append(inst.probes, Footprint{}) // empty footprint edge
	return inst
}

// oracleGain is the scenario-weighted gain computed against the clones.
func (di *deltaInstance) oracleGain(fp Footprint) Coverage {
	var g Coverage
	for i, st := range di.oracle {
		g = g.Add(st.Gain(fp).Scale(di.ws[i]))
	}
	return g
}

func (di *deltaInstance) oracleExpected() Coverage {
	var c Coverage
	for i, st := range di.oracle {
		c = c.Add(st.Coverage().Scale(di.ws[i]))
	}
	return c
}

func coverageClose(a, b Coverage, tol float64) bool {
	return almostEqual(a.Point, b.Point, tol) && almostEqual(a.Aspect, b.Aspect, tol)
}

// TestDeltaSetMatchesMaterializedClones is the core equivalence property:
// the sparse-overlay DeltaSet must agree with one materialized clone per
// scenario on Gain, Expected, and across Commits.
func TestDeltaSetMatchesMaterializedClones(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		di := newDeltaInstance(t, seed, 40, 6, 5)
		for pi, fp := range di.probes {
			got, want := di.ds.Gain(fp), di.oracleGain(fp)
			if !coverageClose(got, want, eps) {
				t.Fatalf("seed %d probe %d: Gain = %+v, oracle %+v", seed, pi, got, want)
			}
		}
		if got, want := di.ds.Expected(), di.oracleExpected(); !coverageClose(got, want, eps) {
			t.Fatalf("seed %d: Expected = %+v, oracle %+v", seed, got, want)
		}
		// Commit a few probes and re-verify everything after each.
		for ci := 0; ci < 3; ci++ {
			fp := di.probes[ci]
			di.ds.Commit(fp)
			for _, st := range di.oracle {
				st.Add(fp)
			}
			for pi, probe := range di.probes {
				got, want := di.ds.Gain(probe), di.oracleGain(probe)
				if !coverageClose(got, want, eps) {
					t.Fatalf("seed %d commit %d probe %d: Gain = %+v, oracle %+v", seed, ci, pi, got, want)
				}
			}
			if got, want := di.ds.Expected(), di.oracleExpected(); !coverageClose(got, want, eps) {
				t.Fatalf("seed %d commit %d: Expected = %+v, oracle %+v", seed, ci, got, want)
			}
		}
		di.ds.Release()
	}
}

// TestDeltaSetResidualReuse checks that a residual compiled once stays valid
// across scenarios and commits (the CELF caching contract), that every gain
// entry point runs the one entry-major kernel — GainResidual, Gain, and
// GainResidualCached on a fresh cache agree exactly, not approximately — and
// that residuals of base-covered footprints are empty.
func TestDeltaSetResidualReuse(t *testing.T) {
	di := newDeltaInstance(t, 42, 40, 6, 4)
	defer di.ds.Release()
	var rs []Residual
	for _, fp := range di.probes {
		var r Residual
		di.ds.CompileResidual(fp, &r)
		rs = append(rs, r)
	}
	check := func(label string) {
		t.Helper()
		for pi, fp := range di.probes {
			got := di.ds.GainResidual(&rs[pi])
			if want := di.ds.Gain(fp); got != want {
				t.Fatalf("%sprobe %d: GainResidual = %+v, Gain = %+v", label, pi, got, want)
			}
			var gc GainCache
			if cached := di.ds.GainResidualCached(&rs[pi], &gc); got != cached {
				t.Fatalf("%sprobe %d: GainResidual = %+v, GainResidualCached = %+v", label, pi, got, cached)
			}
		}
	}
	check("")
	// Committing mutates only overlays, never the base — cached residuals
	// must still agree with fresh compilations afterwards.
	di.ds.Commit(di.probes[0])
	check("post-commit ")
	// A footprint the base fully covers compiles to an empty residual.
	base := di.ds.Base()
	if len(base.touched) > 0 {
		i := int(base.touched[0])
		full := Footprint{Entries: []FootEntry{{PoI: i, Arc: base.arcsAt(i).Arcs()[0]}}}
		var r Residual
		di.ds.CompileResidual(full, &r)
		if len(r.entries) != 0 {
			t.Fatalf("base-covered footprint residual has %d entries", len(r.entries))
		}
		if g := di.ds.GainResidual(&r); !g.IsZero() {
			t.Fatalf("base-covered footprint gain = %+v", g)
		}
	}
}

// TestStatePoolRoundtrip checks the Map's state recycler: released states
// come back empty, and foreign or nil states are ignored.
func TestStatePoolRoundtrip(t *testing.T) {
	m := singlePoIMap(geo.Radians(30))
	st := m.AcquireState()
	st.AddPhoto(photoAt(1, geo.Vec{X: 50}, math.Pi, 100))
	if st.NumCovered() != 1 {
		t.Fatal("photo did not cover the PoI")
	}
	m.ReleaseState(st)
	st2 := m.AcquireState()
	if st2.NumCovered() != 0 || !st2.Coverage().IsZero() {
		t.Fatalf("recycled state not empty: %d covered, %+v", st2.NumCovered(), st2.Coverage())
	}
	// Foreign and nil releases are no-ops, not panics or pool corruption.
	other := singlePoIMap(geo.Radians(30))
	m.ReleaseState(other.NewState())
	m.ReleaseState(nil)
	m.ReleaseState(st2)
}

// TestFootprintCacheConcurrent hammers one cache from many goroutines; under
// -race this validates the documented concurrency contract, and all callers
// must observe identical footprints.
func TestFootprintCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pl := make([]model.PoI, 30)
	for i := range pl {
		pl[i] = model.NewPoI(i, geo.Vec{X: rng.Float64() * 500, Y: rng.Float64() * 500})
	}
	m := NewMap(pl, geo.Radians(30))
	photos := make([]model.Photo, 64)
	for i := range photos {
		photos[i] = photoAt(uint32(i+1), geo.Vec{X: rng.Float64() * 500, Y: rng.Float64() * 500},
			rng.Float64()*geo.TwoPi, 60+rng.Float64()*60)
	}
	c := NewFootprintCache(m)
	const workers = 8
	got := make([][]Footprint, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]Footprint, len(photos))
			for i, p := range photos {
				got[w][i] = c.Of(p)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != len(photos) {
		t.Fatalf("cache Len = %d, want %d", c.Len(), len(photos))
	}
	for w := 1; w < workers; w++ {
		for i := range photos {
			a, b := got[0][i], got[w][i]
			if len(a.Entries) != len(b.Entries) {
				t.Fatalf("worker %d photo %d: entry count differs", w, i)
			}
			for k := range a.Entries {
				if a.Entries[k] != b.Entries[k] {
					t.Fatalf("worker %d photo %d entry %d differs", w, i, k)
				}
			}
		}
	}
}
