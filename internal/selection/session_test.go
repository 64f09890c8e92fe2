package selection

// Session-reuse tests: a session recycled across phases and contacts must
// select exactly what a fresh one does, and steady-state session paths must
// not allocate.

import (
	"testing"

	"photodtn/internal/coverage"
	"photodtn/internal/metadata"
	"photodtn/internal/model"
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

			evSess := s.evaluator(m, sc.cfg, ccFPs, bg)
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
		ev := s.evaluator(m, sc.cfg, ccFPs, bg)
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
