package selection

// Session-reuse tests: a session recycled across phases and contacts must
// select exactly what a fresh one does, and steady-state session paths must
// not allocate.

import (
	"fmt"
	"slices"
	"testing"

	"photodtn/internal/coverage"
	"photodtn/internal/metadata"
	"photodtn/internal/model"
	"photodtn/internal/obs"
)

// TestGreedyFillSessionReuseMatchesFresh pins selections bit-identical
// between an evaluator on a fresh session and one on a single session
// reused across every scale and capacity, so no arena state leaks from one
// phase into the next.
func TestGreedyFillSessionReuseMatchesFresh(t *testing.T) {
	s := NewSession()
	for _, sc := range benchScales() {
		m, ccFPs, bg, pool := benchInstance(t, sc)
		for _, frac := range []int{6, 3, 1} {
			capacity := int64(max(3, len(pool)/frac)) * (4 << 20)

			evFresh := NewEvaluator(m, sc.cfg, ccFPs, bg)
			want := GreedyFill(evFresh, pool, capacity)
			evFresh.Release()
			if len(want) == 0 {
				t.Fatalf("%s: fresh session selected nothing", sc.name)
			}

			evSess := s.fpEvaluator(m, sc.cfg, ccFPs, bg)
			got := GreedyFill(evSess, pool, capacity)
			assertSameSelection(t, sc.name+"/session", want, got)
		}
	}
}

// TestSessionReallocateMatchesStandalone checks the full two-phase
// reallocation: a session reused across repeated contacts must reproduce the
// package-level result (a session acquired from the pool for that one call)
// exactly, with no state leaking between contacts.
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
	view := []metadata.Entry{
		{Node: model.CommandCenter, Photos: cc},
		{Node: 5, P: 0.45, Photos: photos[n/8 : n/3]},
		{Node: 6, P: 0.25, Photos: photos[n/4 : n/2]},
		{Node: 2, P: 0.30, Photos: photos[n/3 : n/2]}, // contacting node: must be skipped
	}
	capacity := int64(12) * (4 << 20)
	a := Alloc{Node: 1, P: 0.6, Capacity: capacity, Photos: photos[n/2 : 4*n/5]}
	b := Alloc{Node: 2, P: 0.35, Capacity: capacity, Photos: photos[7*n/10:]}

	want := Reallocate(fpc, sc.cfg, view, a, b)

	s := NewSession()
	for trial := 0; trial < 3; trial++ {
		got := s.Reallocate(fpc, sc.cfg, view, a, b)
		if got.AFirst != want.AFirst {
			t.Fatalf("trial %d: AFirst %v, want %v", trial, got.AFirst, want.AFirst)
		}
		assertSameSelection(t, "ASel", want.ASel, got.ASel)
		assertSameSelection(t, "BSel", want.BSel, got.BSel)
	}

	wantUp := SelectForUpload(fpc, sc.cfg, cc, a.Photos)
	for trial := 0; trial < 3; trial++ {
		gotUp := s.SelectForUpload(fpc, sc.cfg, cc, a.Photos)
		assertSameSelection(t, "upload", wantUp, gotUp)
	}
}

// TestGreedyFillAllZeroGainSelectsNothing: when the command center already
// holds every pool photo, every gain is identically zero and nothing may be
// selected.
func TestGreedyFillAllZeroGainSelectsNothing(t *testing.T) {
	m, photos := exactInstance(t)
	fpc := coverage.NewFootprintCache(m)
	ccFPs := footprintsOf(fpc, photos)
	pool := BuildPool(fpc, photos)
	cfg := Config{ExactLimit: 5, Samples: 16, Seed: 1}

	ev := NewEvaluator(m, cfg, ccFPs, nil)
	sel := GreedyFill(ev, pool, model.PhotoList(photos).TotalSize())
	ev.Release()
	if len(sel) != 0 {
		t.Fatalf("selected %d photos with all-zero gains", len(sel))
	}
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

// TestSessionGreedyFillAllocs pins the steady-state allocation of a full
// session-backed selection phase: the returned selection list (which the
// caller keeps) is its one allocation. The session owns its coverage
// states, so the count does not depend on what the map's shared state pool
// holds or on when the collector last emptied it.
func TestSessionGreedyFillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sc := benchScales()[0]
	m, ccFPs, bg, pool := benchInstance(t, sc)
	capacity := int64(max(5, len(pool)/3)) * (4 << 20)
	s := NewSession()
	run := func() int {
		ev := s.fpEvaluator(m, sc.cfg, ccFPs, bg)
		sel := GreedyFill(ev, pool, capacity)
		return len(sel)
	}
	selected := run() // warm the arenas
	if selected == 0 {
		t.Fatal("selected nothing")
	}
	n := testing.AllocsPerRun(10, func() { run() })
	if n > 1 {
		t.Fatalf("warmed session selection phase allocates %.1f times, want ≤ 1", n)
	}
}

// TestExtendMatchesFreshEvaluator pins phase 2 of Reallocate: extending
// phase 1's evaluator with the first node must give exactly — with ==, not
// within an epsilon — what a fresh evaluator over the extended background
// gives: the scenario count, Expected, every pool gain and the greedy
// selection. Cases cover a first node that is dropped (P = 0), one that
// joins the live set (P = 0.3) and one that joins the base (P = 1, where
// extend must refuse), an empty first selection, a live count that crosses
// ExactLimit, and one session reused across alternating sampling seeds.
func TestExtendMatchesFreshEvaluator(t *testing.T) {
	sc := benchScales()[0] // four live background nodes
	m, ccFPs, bg, pool := benchInstance(t, sc)
	fpc := coverage.NewFootprintCache(m)
	bg = slices.Clip(bg)
	configs := []Config{
		{ExactLimit: 5, Samples: 24, Seed: 1}, // exact in both phases
		{ExactLimit: 4, Samples: 20, Seed: 2}, // exact, then sampled
		{ExactLimit: 2, Samples: 24, Seed: 3}, // sampled in both phases
	}
	cap1 := int64(len(pool)/3) * (4 << 20)
	cap2 := int64(len(pool)/4) * (4 << 20)
	s := NewSession()
	for round := 0; round < 2; round++ {
		for _, cfg := range configs {
			for _, p := range []float64{0, 0.3, 1} {
				for _, empty := range []bool{false, true} {
					label := fmt.Sprintf("round %d seed %d P %v empty %v", round, cfg.Seed, p, empty)
					reg := obs.NewRegistry()
					metered := cfg
					metered.Metrics = Metrics{Evaluators: reg.Counter("ev"), Scenarios: reg.Histogram("sc")}

					fresh1 := NewEvaluator(m, cfg, ccFPs, bg)
					scen1 := fresh1.Scenarios()
					want1 := GreedyFill(fresh1, pool, cap1)
					fresh1.Release()
					ev := s.fpEvaluator(m, metered, ccFPs, bg)
					sel1 := GreedyFill(ev, pool, cap1)
					if len(want1) == 0 {
						t.Fatalf("%s: phase 1 selected nothing", label)
					}
					assertSameSelection(t, label+" phase 1", want1, sel1)

					var firstSel model.PhotoList
					if !empty {
						firstSel = sel1
					}
					node := bgNode{p: p, fps: footprintsOf(fpc, firstSel)}
					before := ev.Expected()
					extended := ev.extend(metered, node)
					bg2 := append(bg, node)
					if !extended {
						if ev.Expected() != before {
							t.Fatalf("%s: a refused extend changed the evaluator", label)
						}
						ev = s.fpEvaluator(m, metered, ccFPs, bg2)
					}
					if got := reg.Counter("ev").Value(); got != 2 {
						t.Fatalf("%s: %d evaluators counted, want one per phase", label, got)
					}

					fresh := NewEvaluator(m, cfg, ccFPs, bg2)
					if got, want := ev.Scenarios(), fresh.Scenarios(); got != want {
						t.Fatalf("%s: %d scenarios, fresh %d", label, got, want)
					}
					if h := reg.Histogram("sc"); h.Count() != 2 || h.Sum() != float64(scen1+fresh.Scenarios()) {
						t.Fatalf("%s: scenario histogram count %d sum %v, want one observation per phase", label, h.Count(), h.Sum())
					}
					if got, want := ev.Expected(), fresh.Expected(); got != want {
						t.Fatalf("%s: Expected = %+v, fresh %+v", label, got, want)
					}
					for i, it := range pool {
						if got, want := ev.Gain(it.FP), fresh.Gain(it.FP); got != want {
							t.Fatalf("%s: pool item %d gain = %+v, fresh %+v", label, i, got, want)
						}
					}
					want2 := GreedyFill(fresh, pool, cap2)
					assertSameSelection(t, label+" phase 2", want2, GreedyFill(ev, pool, cap2))
					if got, want := ev.Expected(), fresh.Expected(); got != want {
						t.Fatalf("%s: Expected after phase 2 = %+v, fresh %+v", label, got, want)
					}
					fresh.Release()
					if joinsBase := !empty && p >= 1; extended == joinsBase {
						t.Fatalf("%s: extend returned %v for a node that joins the base: %v", label, extended, joinsBase)
					}
				}
			}
		}
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
