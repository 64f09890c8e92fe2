package selection

// Differential tests of the incremental CELF machinery introduced with the
// Session arena: dirty-PoI gain invalidation must equal a from-scratch
// residual walk to near machine precision over random commit sequences,
// zero-gain culling and session reuse must leave selections bit-identical,
// and steady-state session paths must not allocate.

import (
	"math/rand"
	"testing"

	"photodtn/internal/coverage"
	"photodtn/internal/model"
)

// incEps bounds incremental-vs-from-scratch divergence. The two paths differ
// only in floating-point association (entry-major vs scenario-major sums),
// so the tolerance is far below diffEps — near machine precision.
const incEps = 1e-12

// TestIncrementalGainMatchesFromScratch drives ≥200 random commit sequences
// and, after every commit, checks a sample of incrementally-maintained
// candidate gains against an uncached full residual walk on the same
// scenario set.
func TestIncrementalGainMatchesFromScratch(t *testing.T) {
	scales := benchScales()
	rng := rand.New(rand.NewSource(42))
	sequences := 0
	for _, sc := range scales[:2] {
		m, ccFPs, bg, pool := benchInstance(t, sc)
		for seq := 0; seq < 100; seq++ {
			cfg := sc.cfg
			cfg.Seed = rng.Int63()
			ev := NewEvaluator(m, cfg, ccFPs, bg)
			cands := make([]*cand, len(pool))
			for i, it := range pool {
				cands[i] = &cand{item: it}
			}
			// Warm a random subset so some caches are stale across several
			// commits (the dirty intersection accumulates), others fresh.
			for _, i := range rng.Perm(len(cands))[:len(cands)/2] {
				ev.gainCand(cands[i])
			}
			for step := 0; step < 6; step++ {
				ev.Commit(pool[rng.Intn(len(pool))].FP)
				for k := 0; k < 8; k++ {
					c := cands[rng.Intn(len(cands))]
					ev.gainCand(c) // incremental: dirty entries only
					want := ev.ds.GainCached(&c.resid)
					if !covClose(c.gain, want, incEps) {
						t.Fatalf("%s seq %d step %d: incremental %+v, from-scratch %+v",
							sc.name, seq, step, c.gain, want)
					}
				}
			}
			ev.Release()
			sequences++
		}
	}
	if sequences < 200 {
		t.Fatalf("only %d commit sequences exercised, want ≥ 200", sequences)
	}
}

// TestGreedyFillIncrementalMatchesDisabled pins selections bit-identical
// between the incremental path (dirty-PoI caches + zero-gain culling) and
// the pre-incremental full-rewalk path, with and without a session.
func TestGreedyFillIncrementalMatchesDisabled(t *testing.T) {
	s := NewSession()
	for _, sc := range benchScales() {
		m, ccFPs, bg, pool := benchInstance(t, sc)
		for _, frac := range []int{6, 3, 1} {
			capacity := int64(max(3, len(pool)/frac)) * (4 << 20)

			offCfg := sc.cfg
			offCfg.DisableIncremental = true
			evOff := NewEvaluator(m, offCfg, ccFPs, bg)
			want := GreedyFill(evOff, pool, capacity)
			evOff.Release()

			evOn := NewEvaluator(m, sc.cfg, ccFPs, bg)
			got := GreedyFill(evOn, pool, capacity)
			evOn.Release()
			assertSameSelection(t, sc.name+"/standalone", want, got)

			evSess := s.evaluator(m, sc.cfg, ccFPs, bg)
			got = GreedyFill(evSess, pool, capacity)
			evSess.Release()
			assertSameSelection(t, sc.name+"/session", want, got)
		}
	}
}

// TestSessionReallocateMatchesStandalone checks the full two-phase
// reallocation: a session reused across repeated contacts must reproduce the
// package-level (pre-incremental) result exactly, with no state leaking
// between contacts.
func TestSessionReallocateMatchesStandalone(t *testing.T) {
	sc := benchScales()[1]
	m, _, _, pool := benchInstance(t, sc)
	fpc := coverage.NewFootprintCache(m)
	var photos model.PhotoList
	for _, it := range pool {
		photos = append(photos, it.Photo)
	}
	if len(photos) < 60 {
		t.Fatalf("instance too small: %d photos", len(photos))
	}
	n := len(photos)
	cc := photos[:n/8]
	background := []Participant{
		{Node: 5, P: 0.45, Photos: photos[n/8 : n/3]},
		{Node: 6, P: 0.25, Photos: photos[n/4 : n/2]},
		{Node: 2, P: 0.30, Photos: photos[n/3 : n/2]}, // contacting node: must be skipped
	}
	capacity := int64(12) * (4 << 20)
	a := Alloc{Node: 1, P: 0.6, Capacity: capacity, Photos: photos[n/2 : 4*n/5]}
	b := Alloc{Node: 2, P: 0.35, Capacity: capacity, Photos: photos[7*n/10:]}

	offCfg := sc.cfg
	offCfg.DisableIncremental = true
	want := Reallocate(fpc, offCfg, cc, background, a, b)

	s := NewSession()
	for trial := 0; trial < 3; trial++ {
		got := s.Reallocate(fpc, sc.cfg, cc, background, a, b)
		if got.AFirst != want.AFirst {
			t.Fatalf("trial %d: AFirst %v, want %v", trial, got.AFirst, want.AFirst)
		}
		assertSameSelection(t, "ASel", want.ASel, got.ASel)
		assertSameSelection(t, "BSel", want.BSel, got.BSel)
	}

	wantUp := SelectForUpload(fpc, offCfg, cc, a.Photos)
	for trial := 0; trial < 3; trial++ {
		gotUp := s.SelectForUpload(fpc, sc.cfg, cc, a.Photos)
		assertSameSelection(t, "upload", wantUp, gotUp)
	}
}

// TestZeroGainCulling: candidates fully covered by the base must never be
// selected, and selections with culling on equal the full-heap behaviour.
func TestZeroGainCulling(t *testing.T) {
	m, photos := exactInstance(t)
	fpc := coverage.NewFootprintCache(m)
	// The command center already holds every pool photo: all gains are
	// identically zero and nothing may be selected by either path.
	ccFPs := footprintsOf(fpc, photos)
	pool := BuildPool(fpc, photos)
	cfg := Config{ExactLimit: 5, Samples: 16, Seed: 1}

	ev := NewEvaluator(m, cfg, ccFPs, nil)
	sel := GreedyFill(ev, pool, model.PhotoList(photos).TotalSize())
	ev.Release()
	if len(sel) != 0 {
		t.Fatalf("selected %d photos with all-zero gains", len(sel))
	}

	// Partial overlap: only the uncovered photos are pickable; culling must
	// not change the outcome relative to the disabled path.
	ccFPs = footprintsOf(fpc, photos[:len(photos)/2])
	offCfg := cfg
	offCfg.DisableIncremental = true
	evOff := NewEvaluator(m, offCfg, ccFPs, nil)
	want := GreedyFill(evOff, pool, model.PhotoList(photos).TotalSize())
	evOff.Release()
	evOn := NewEvaluator(m, cfg, ccFPs, nil)
	got := GreedyFill(evOn, pool, model.PhotoList(photos).TotalSize())
	evOn.Release()
	assertSameSelection(t, "partial-overlap", want, got)
}

// TestSessionBuildPoolAllocs is the pooled-dedup-map regression guard: a
// warmed session's BuildPool must not allocate at all.
func TestSessionBuildPoolAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m, photos := exactInstance(t)
	fpc := coverage.NewFootprintCache(m)
	half := len(photos) / 2
	colA, colB := photos[:half+5], photos[half:]
	s := NewSession()
	s.BuildPool(fpc, colA, colB) // warm the arena and the footprint cache
	n := testing.AllocsPerRun(20, func() {
		if len(s.BuildPool(fpc, colA, colB)) == 0 {
			t.Fatal("empty pool")
		}
	})
	if n != 0 {
		t.Fatalf("warmed Session.BuildPool allocates %.1f times per call, want 0", n)
	}
}

// TestSessionGreedyFillAllocs bounds the steady-state allocation of a full
// session-backed selection phase: only the returned selection list (which
// the caller keeps) may allocate.
func TestSessionGreedyFillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sc := benchScales()[0]
	m, ccFPs, bg, pool := benchInstance(t, sc)
	capacity := int64(max(5, len(pool)/3)) * (4 << 20)
	s := NewSession()
	run := func() int {
		ev := s.evaluator(m, sc.cfg, ccFPs, bg)
		sel := GreedyFill(ev, pool, capacity)
		ev.Release()
		return len(sel)
	}
	selected := run() // warm the arenas
	if selected == 0 {
		t.Fatal("selected nothing")
	}
	n := testing.AllocsPerRun(10, func() { run() })
	// The selected list grows by appending from nil: a handful of
	// allocations per phase, independent of pool and scenario scale.
	if limit := float64(8 + selected); n > limit {
		t.Fatalf("warmed session selection phase allocates %.1f times, want ≤ %.0f", n, limit)
	}
}

func assertSameSelection(t *testing.T, label string, want, got model.PhotoList) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: selected %d photos, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID {
			t.Fatalf("%s: selection diverges at %d: %v, want %v", label, i, got[i].ID, want[i].ID)
		}
	}
}
