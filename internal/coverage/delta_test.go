package coverage

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"photodtn/internal/geo"
	"photodtn/internal/model"
	"photodtn/internal/obs"
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

	inst := &deltaInstance{m: m, ds: &DeltaSet{}}
	base := inst.ds.Begin(m)
	for i := 0; i < basePhotos; i++ {
		base.Add(randomFP())
	}
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

// TestDeltaSetBeginRecyclesStates checks that a DeltaSet carried from life
// to life answers exactly as a fresh one built the same way, whether the
// new life has fewer or more scenarios, that it runs on the states it
// already owns, and that Begin on another map hands those states back to
// their map's pool.
func TestDeltaSetBeginRecyclesStates(t *testing.T) {
	di := newDeltaInstance(t, 7, 40, 6, 5)
	build := func(d *DeltaSet, seed int64, nScens int) {
		rng := rand.New(rand.NewSource(seed))
		pick := func() Footprint { return di.probes[rng.Intn(len(di.probes))] }
		base := d.Begin(di.m)
		for i := 0; i < 3; i++ {
			base.Add(pick())
		}
		var r Residual
		for s := 0; s < nScens; s++ {
			si := d.AddScenario(rng.Float64())
			for k := rng.Intn(3); k >= 0; k-- {
				d.CompileResidual(pick(), &r)
				d.AddResidual(si, &r)
			}
		}
	}
	reused := di.ds
	firstBase, firstOverlay := reused.Base(), reused.overlays[0]
	for life, n := range []int{2, 7, 4} {
		build(reused, int64(life), n)
		fresh := &DeltaSet{}
		build(fresh, int64(life), n)
		if reused.Scenarios() != n || fresh.Scenarios() != n {
			t.Fatalf("life %d: %d and %d scenarios, want %d", life, reused.Scenarios(), fresh.Scenarios(), n)
		}
		if got, want := reused.Expected(), fresh.Expected(); got != want {
			t.Fatalf("life %d: Expected = %+v, fresh %+v", life, got, want)
		}
		for pi, fp := range di.probes {
			if got, want := reused.Gain(fp), fresh.Gain(fp); got != want {
				t.Fatalf("life %d probe %d: Gain = %+v, fresh %+v", life, pi, got, want)
			}
		}
		fresh.Release()
	}
	if reused.Base() != firstBase || reused.overlays[0] != firstOverlay {
		t.Fatal("Begin on the same map did not reuse the states it owns")
	}
	other := NewMap([]model.PoI{model.NewPoI(0, geo.Vec{})}, geo.Radians(30))
	if base := reused.Begin(other); base.Map() != other || base.Coverage() != (Coverage{}) {
		t.Fatal("Begin on another map did not hand out an empty base of that map")
	}
	if !firstBase.pooled || !firstOverlay.pooled {
		t.Fatal("Begin on another map kept the old map's states instead of pooling them")
	}
	reused.Release()
}

// TestDeltaSetResidualReuse checks that a residual compiled once stays valid
// across scenarios and commits (the CELF caching contract), that both gain
// entry points run the one entry-major kernel — GainResidual and Gain agree
// exactly, not approximately — and that residuals of base-covered
// footprints are empty.
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

// refCommit is Commit as it was before the committed layer: the residual
// pieces are unioned into every scenario's overlay. It is the reference the
// shared layer must match bit for bit, so it is kept as it was written.
func (d *DeltaSet) refCommit(fp Footprint) {
	var r Residual
	d.CompileResidual(fp, &r)
	m := d.base.m
	for si := range d.scens {
		sd := &d.scens[si]
		for i := range r.entries {
			re := &r.entries[i]
			poi := int(re.poi)
			pieces := r.arcs[re.lo:re.hi]
			os := sd.st.arcs[poi]
			if !re.basePt && os == nil {
				sd.extra.Point += re.w
			}
			if os == nil {
				sd.extra.Aspect += re.w * re.freeAs
				os = sd.st.arena.take()
				sd.st.arcs[poi] = os
				sd.st.touched = append(sd.st.touched, re.poi)
			} else {
				if prof, ok := m.profiles[poi]; ok {
					buf := d.buf[:0]
					for _, p := range pieces {
						buf = os.AppendUncovered(p, buf)
					}
					d.buf = buf[:0]
					sd.extra.Aspect += re.w * prof.MeasureArcs(buf)
				} else {
					sd.extra.Aspect += re.w * os.GainArcs(pieces)
				}
			}
			for _, p := range pieces {
				os.Add(p)
			}
		}
	}
}

// refGainResidual is GainResidual over refCommit's overlays: every
// scenario reads only its own overlay.
func (d *DeltaSet) refGainResidual(r *Residual) Coverage {
	m := d.base.m
	var g Coverage
	for i := range r.entries {
		re := &r.entries[i]
		pieces := r.arcs[re.lo:re.hi]
		poi := int(re.poi)
		prof, hasProf := m.profiles[poi]
		var pt, as float64
		for si := range d.scens {
			w := d.scens[si].w
			os := d.scens[si].st.arcs[poi]
			if os == nil {
				if !re.basePt {
					pt += w * re.w
				}
				as += w * re.w * re.freeAs
				continue
			}
			if hasProf {
				buf := d.buf[:0]
				for _, p := range pieces {
					buf = os.AppendUncovered(p, buf)
				}
				d.buf = buf[:0]
				as += w * re.w * prof.MeasureArcs(buf)
			} else {
				as += w * re.w * os.GainArcs(pieces)
			}
		}
		g.Point += pt
		g.Aspect += as
	}
	return g
}

// TestCommittedLayerMatchesPerOverlayCommit pins the committed layer to the
// per-overlay reference: two DeltaSets built the same way, one committing
// through the shared layer and one into every overlay, must report equal —
// not merely close — Gain, GainResidual and Expected after every commit.
// Maps mix weighted and profiled PoIs. The sparse regime gives each
// scenario a few delivered photos over a wide area, so most overlays miss
// most PoIs; the dense regime packs many photos onto few PoIs, so most
// commits land where scenarios have arcs of their own. A lone scenario
// takes its commits into its own overlay.
func TestCommittedLayerMatchesPerOverlayCommit(t *testing.T) {
	regimes := []struct {
		name          string
		pois, perScen int
		area          float64
		scens         int // 0: between 3 and 22
	}{
		{"sparse", 60, 3, 900, 0},
		{"dense", 12, 12, 250, 0},
		{"single", 40, 3, 600, 1},
	}
	for _, rg := range regimes {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pl := make([]model.PoI, rg.pois)
			var opts []MapOption
			for i := range pl {
				pl[i] = model.NewPoI(i, geo.Vec{X: rng.Float64() * rg.area, Y: rng.Float64() * rg.area})
				if rng.Intn(3) == 0 {
					pl[i].Weight = 1 + 2*rng.Float64()
				}
				if rng.Intn(3) == 0 {
					opts = append(opts, WithAspectProfile(i, AspectProfile{
						Base:     0.5 + rng.Float64(),
						Segments: []WeightedArc{{Arc: ArcAroundDeg(rng.Float64()*360, 20+rng.Float64()*60), Weight: 3 * rng.Float64()}},
					}))
				}
			}
			m := NewMap(pl, geo.Radians(30), opts...)
			randomFP := func() Footprint {
				p := photoAt(rng.Uint32(), geo.Vec{X: rng.Float64() * rg.area, Y: rng.Float64() * rg.area},
					rng.Float64()*geo.TwoPi, 60+rng.Float64()*120)
				return m.Footprint(p)
			}
			var baseFPs []Footprint
			for i := 0; i < 4; i++ {
				baseFPs = append(baseFPs, randomFP())
			}
			nScens := 3 + rng.Intn(20)
			if rg.scens > 0 {
				nScens = rg.scens
			}
			ws := make([]float64, nScens)
			scenFPs := make([][]Footprint, nScens)
			for si := range scenFPs {
				ws[si] = rng.Float64()
				for k := rng.Intn(rg.perScen + 1); k > 0; k-- {
					scenFPs[si] = append(scenFPs[si], randomFP())
				}
			}
			build := func() *DeltaSet {
				d := &DeltaSet{}
				base := d.Begin(m)
				for _, fp := range baseFPs {
					base.Add(fp)
				}
				var r Residual
				for si, fps := range scenFPs {
					d.AddScenario(ws[si])
					for _, fp := range fps {
						d.CompileResidual(fp, &r)
						d.AddResidual(si, &r)
					}
				}
				return d
			}
			got, ref := build(), build()
			probes := make([]Footprint, 30)
			for i := range probes {
				probes[i] = randomFP()
			}
			label := fmt.Sprintf("%s seed %d", rg.name, seed)
			var rGot, rRef Residual
			for ci := 0; ci <= 12; ci++ {
				if ci > 0 {
					fp := probes[rng.Intn(len(probes))]
					if rng.Intn(4) == 0 {
						fp = randomFP()
					}
					got.Commit(fp)
					ref.refCommit(fp)
				}
				if g, w := got.Expected(), ref.Expected(); g != w {
					t.Fatalf("%s commit %d: Expected = %+v, reference %+v", label, ci, g, w)
				}
				for pi, fp := range probes {
					got.CompileResidual(fp, &rGot)
					ref.CompileResidual(fp, &rRef)
					w := ref.refGainResidual(&rRef)
					if g := got.GainResidual(&rGot); g != w {
						t.Fatalf("%s commit %d probe %d: GainResidual = %+v, reference %+v", label, ci, pi, g, w)
					}
					if g := got.Gain(fp); g != w {
						t.Fatalf("%s commit %d probe %d: Gain = %+v, reference %+v", label, ci, pi, g, w)
					}
				}
			}
			if rg.scens == 1 && got.comm != nil {
				t.Fatalf("%s: a lone scenario acquired the committed layer", label)
			}
			got.Release()
			ref.Release()
		}
	}
}

// TestDeltaSetRefusesScenariosAfterCommit: a scenario built after a Commit
// would read the committed layer as its own, so building one panics until
// ClearScenarios or Resume starts a new family on the same base.
func TestDeltaSetRefusesScenariosAfterCommit(t *testing.T) {
	di := newDeltaInstance(t, 5, 40, 6, 3)
	defer di.ds.Release()
	var committed Footprint
	for _, fp := range di.probes {
		var r Residual
		if di.ds.CompileResidual(fp, &r); len(r.entries) > 0 {
			committed = fp
			break
		}
	}
	di.ds.Commit(committed)
	for name, build := range map[string]func(){
		"AddScenario": func() { di.ds.AddScenario(0.5) },
		"AddResidual": func() { var r Residual; di.ds.AddResidual(0, &r) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after Commit did not panic", name)
				}
			}()
			build()
		}()
	}
	base := di.ds.Base().Coverage()
	di.ds.ClearScenarios()
	if di.ds.Scenarios() != 0 || di.ds.Base().Coverage() != base {
		t.Fatal("ClearScenarios did not keep the base and drop the scenarios")
	}
	si := di.ds.AddScenario(1)
	if got := di.ds.Expected(); got != base {
		t.Fatalf("empty scenario after ClearScenarios: Expected = %+v, base %+v", got, base)
	}
	var r Residual
	di.ds.CompileResidual(committed, &r)
	di.ds.AddResidual(si, &r)
	di.ds.Commit(committed)
	if di.ds.Resume() != di.ds.Base() || di.ds.Scenarios() != 0 || di.ds.Base().Coverage() != base {
		t.Fatal("Resume did not keep the base and drop the scenarios")
	}
	di.ds.AddScenario(1)
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
	reg := obs.NewRegistry()
	c.SetMetrics(reg.Counter("hits"), reg.Counter("misses"))
	const workers = 8
	got := make([][]Footprint, workers)
	useful := make([][]Footprint, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 1 {
				// Odd workers take the whole list at once, in two halves so
				// the second often starts on photos others have published.
				useful[w] = c.AppendUseful(nil, photos[:len(photos)/2])
				useful[w] = c.AppendUseful(useful[w], photos[len(photos)/2:])
				return
			}
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
	if n := reg.Counter("hits").Value() + reg.Counter("misses").Value(); n != workers*int64(len(photos)) {
		t.Fatalf("hits + misses = %d, want one per lookup (%d)", n, workers*len(photos))
	}
	var want []Footprint
	for _, fp := range got[0] {
		if !fp.IsEmpty() {
			want = append(want, fp)
		}
	}
	for w := 1; w < workers; w++ {
		if w%2 == 1 {
			assertSameFootprints(t, fmt.Sprintf("worker %d", w), useful[w], want)
			continue
		}
		assertSameFootprints(t, fmt.Sprintf("worker %d", w), got[w], got[0])
	}
}

func assertSameFootprints(t *testing.T, label string, got, want []Footprint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d footprints, want %d", label, len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		if len(a.Entries) != len(b.Entries) {
			t.Fatalf("%s footprint %d: entry count differs", label, i)
		}
		for k := range a.Entries {
			if a.Entries[k] != b.Entries[k] {
				t.Fatalf("%s footprint %d entry %d differs", label, i, k)
			}
		}
	}
}

// TestAppendUsefulMatchesOf: AppendUseful must append exactly what a loop
// of Of calls keeps — the non-empty footprints, in order, after what dst
// already holds — and count the same hits and misses, whether the list is
// all cached, all cold, or has misses in the middle.
func TestAppendUsefulMatchesOf(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pl := make([]model.PoI, 20)
	for i := range pl {
		pl[i] = model.NewPoI(i, geo.Vec{X: rng.Float64() * 400, Y: rng.Float64() * 400})
	}
	m := NewMap(pl, geo.Radians(30))
	photos := make(model.PhotoList, 40)
	for i := range photos {
		photos[i] = photoAt(uint32(i+1), geo.Vec{X: rng.Float64() * 400, Y: rng.Float64() * 400},
			rng.Float64()*geo.TwoPi, 60+rng.Float64()*60)
		if i%5 == 2 {
			photos[i].Location = geo.Vec{X: 1e6, Y: 1e6} // covers nothing
		}
	}
	type side struct {
		c            *FootprintCache
		hits, misses *obs.Counter
	}
	newSide := func() *side {
		reg := obs.NewRegistry()
		sd := &side{c: NewFootprintCache(m), hits: reg.Counter("h"), misses: reg.Counter("m")}
		sd.c.SetMetrics(sd.hits, sd.misses)
		return sd
	}
	batch, loop := newSide(), newSide()
	// Warm both caches with the first ten photos and a few later ones, so
	// the list has a cached prefix and misses in the middle.
	for _, sd := range []*side{batch, loop} {
		for _, i := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 22, 23, 31} {
			sd.c.Of(photos[i])
		}
	}
	lead := m.Footprint(photos[0])
	for pass, list := range []model.PhotoList{photos, photos, photos[30:], nil} {
		got := batch.c.AppendUseful([]Footprint{lead}, list)
		want := []Footprint{lead}
		for _, p := range list {
			if fp := loop.c.Of(p); !fp.IsEmpty() {
				want = append(want, fp)
			}
		}
		assertSameFootprints(t, fmt.Sprintf("pass %d", pass), got, want)
		if batch.hits.Value() != loop.hits.Value() || batch.misses.Value() != loop.misses.Value() {
			t.Fatalf("pass %d: %d hits and %d misses, Of loop %d and %d", pass,
				batch.hits.Value(), batch.misses.Value(), loop.hits.Value(), loop.misses.Value())
		}
	}
}
