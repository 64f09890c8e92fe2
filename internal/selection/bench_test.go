package selection

// Micro-benchmarks of the expected-coverage evaluator hot path: construction
// (scenario building), Gain (the per-candidate scan GreedyFill repeats), and
// Commit (folding a selected photo into every scenario). Scales cover the
// exact-enumeration regime (2^k scenarios) and the Monte Carlo regime.
//
// `make bench` runs these and emits BENCH_selection.json, the committed
// baseline of the performance trajectory.

import (
	"math/rand"
	"testing"

	"photodtn/internal/coverage"
	"photodtn/internal/geo"
	"photodtn/internal/model"
	"photodtn/internal/workload"
)

// benchScale is one (PoIs, photos, background nodes) operating point.
type benchScale struct {
	name     string
	pois     int
	bgNodes  int
	perNode  int
	poolSize int
	cfg      Config
}

func benchScales() []benchScale {
	return []benchScale{
		// 2^4 = 16 exact scenarios over a small map.
		{name: "exact16_pois60", pois: 60, bgNodes: 4, perNode: 30, poolSize: 60,
			cfg: Config{ExactLimit: 5, Samples: 24, Seed: 1}},
		// 2^5 = 32 exact scenarios over the paper-scale map.
		{name: "exact32_pois250", pois: 250, bgNodes: 5, perNode: 60, poolSize: 120,
			cfg: Config{ExactLimit: 5, Samples: 24, Seed: 1}},
		// Monte Carlo regime: 12 background nodes, 24 common-random samples.
		{name: "mc24_pois250", pois: 250, bgNodes: 12, perNode: 60, poolSize: 120,
			cfg: Config{ExactLimit: 5, Samples: 24, Seed: 1}},
	}
}

// benchInstance builds a deterministic evaluator workload at the scale.
func benchInstance(tb testing.TB, sc benchScale) (m *coverage.Map, ccFPs []coverage.Footprint, bg []bgNode, pool []Item) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(11 + sc.pois)))
	wl := workload.Default(50, 3600)
	wl.NumPoIs = sc.pois
	// A dense deployment (vs the paper's sparse 6300 m box): photos must
	// actually hit PoIs for footprints — and hence evaluator work — to be
	// non-trivial. ~1500 m keeps most footprints non-empty at paper-default
	// coverage ranges.
	wl.Region = geo.Square(1500)
	// 1.5× margin: the arrival process is Poisson, so the realised count
	// fluctuates around PhotosPerHour · span.
	wl.PhotosPerHour = 1.5 * float64(sc.bgNodes*sc.perNode+sc.poolSize+40)
	poisList := workload.GeneratePoIs(wl, rng)
	m = coverage.NewMap(poisList, geo.Radians(30))
	var photos model.PhotoList
	for _, e := range workload.GeneratePhotos(wl, rng) {
		photos = append(photos, e.Photo)
	}
	need := sc.bgNodes*sc.perNode + sc.poolSize + 40
	if len(photos) < need {
		tb.Fatalf("workload too small: %d < %d", len(photos), need)
	}
	fpc := coverage.NewFootprintCache(m)
	ccFPs = footprintsOf(fpc, photos[:40])
	photos = photos[40:]
	for i := 0; i < sc.bgNodes; i++ {
		bg = append(bg, bgNode{
			p:   0.15 + 0.6*float64(i)/float64(sc.bgNodes),
			fps: footprintsOf(fpc, photos[i*sc.perNode:(i+1)*sc.perNode]),
		})
	}
	pool = BuildPool(fpc, photos[sc.bgNodes*sc.perNode:sc.bgNodes*sc.perNode+sc.poolSize])
	if len(pool) == 0 {
		tb.Fatal("empty candidate pool")
	}
	return m, ccFPs, bg, pool
}

func BenchmarkEvaluatorConstruct(b *testing.B) {
	for _, sc := range benchScales() {
		b.Run(sc.name, func(b *testing.B) {
			m, ccFPs, bg, _ := benchInstance(b, sc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := NewEvaluator(m, sc.cfg, ccFPs, bg)
				if ev.Scenarios() == 0 {
					b.Fatal("no scenarios")
				}
				ev.Release()
			}
		})
	}
}

func BenchmarkEvaluatorGain(b *testing.B) {
	for _, sc := range benchScales() {
		b.Run(sc.name, func(b *testing.B) {
			m, ccFPs, bg, pool := benchInstance(b, sc)
			ev := NewEvaluator(m, sc.cfg, ccFPs, bg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Gain(pool[i%len(pool)].FP)
			}
		})
	}
}

func BenchmarkEvaluatorCommit(b *testing.B) {
	for _, sc := range benchScales() {
		b.Run(sc.name, func(b *testing.B) {
			m, ccFPs, bg, pool := benchInstance(b, sc)
			ev := NewEvaluator(m, sc.cfg, ccFPs, bg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Commit(pool[i%len(pool)].FP)
			}
		})
	}
}

func BenchmarkEvaluatorGreedyFill(b *testing.B) {
	for _, sc := range benchScales() {
		b.Run(sc.name, func(b *testing.B) {
			m, ccFPs, bg, pool := benchInstance(b, sc)
			capacity := int64(max(5, len(pool)/3)) * (4 << 20)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := NewEvaluator(m, sc.cfg, ccFPs, bg)
				if sel := GreedyFill(ev, pool, capacity); len(sel) == 0 {
					b.Fatal("selected nothing")
				}
				ev.Release()
			}
		})
		// The session variant recycles evaluator, heap, candidate, and
		// residual storage across iterations — the per-contact steady state
		// core.Scheme runs in.
		b.Run(sc.name+"/session", func(b *testing.B) {
			m, ccFPs, bg, pool := benchInstance(b, sc)
			capacity := int64(max(5, len(pool)/3)) * (4 << 20)
			s := NewSession()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := s.evaluator(m, sc.cfg, ccFPs, bg)
				if sel := GreedyFill(ev, pool, capacity); len(sel) == 0 {
					b.Fatal("selected nothing")
				}
				ev.Release()
			}
		})
	}
}

// BenchmarkEvaluatorGainStale measures one full stale-recompute storm — an
// evaluator construction, the initial gain scan, then several commits each
// followed by a refresh of every candidate (the worst case the CELF loop
// can hit). "fromscratch" is the pre-incremental machinery: an evaluator on a
// fresh session per iteration re-walking full residuals; "incremental" is
// one reused session on the dirty-PoI path, where a refresh re-walks only
// entries the commit touched.
func BenchmarkEvaluatorGainStale(b *testing.B) {
	const rounds = 6
	for _, sc := range benchScales() {
		// reused is nil for a fresh session per iteration.
		run := func(b *testing.B, reused *Session, cfg Config) {
			m, ccFPs, bg, pool := benchInstance(b, sc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := reused
				if s == nil {
					s = NewSession()
				}
				ev := s.evaluator(m, cfg, ccFPs, bg)
				s.cands.reset()
				cands := s.heapItems[:0]
				for _, it := range pool {
					c := s.cands.take()
					c.item = it
					cands = append(cands, c)
				}
				ev.gainBatch(cands)
				for r := 0; r < rounds; r++ {
					ev.Commit(cands[r].item.FP)
					for _, c := range cands {
						ev.gainCand(c)
					}
				}
				s.heapItems = cands[:0]
				ev.Release()
			}
		}
		b.Run(sc.name+"/fromscratch", func(b *testing.B) {
			cfg := sc.cfg
			cfg.DisableIncremental = true
			run(b, nil, cfg)
		})
		b.Run(sc.name+"/incremental", func(b *testing.B) {
			run(b, NewSession(), sc.cfg)
		})
	}
}
