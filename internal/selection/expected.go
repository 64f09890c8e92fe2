// Package selection implements the heart of the paper: expected coverage
// (Definition 2, §III-C) and the greedy photo reallocation algorithm
// (§III-D) that two nodes run when they are in contact.
//
// Expected coverage is an expectation over delivery outcomes B ∈ {0,1}^m of
// the photo coverage the command center would obtain. Its exact evaluation
// is exponential in the number of probabilistic nodes, so the Evaluator
// enumerates outcomes exactly up to a configurable limit and switches to
// common-random-number Monte Carlo sampling beyond it. Common random
// numbers matter: every candidate photo is ranked against the same sampled
// outcomes, which removes sampling noise from the comparisons the greedy
// makes.
//
// Internally the evaluator is a coverage.DeltaSet: all outcomes share one
// immutable base state and each scenario stores only the arcs its
// delivering nodes add, so construction never clones the base and a Gain
// query is a single footprint walk regardless of the scenario count.
package selection

import (
	"photodtn/internal/coverage"
	"photodtn/internal/metadata"
	"photodtn/internal/model"
	"photodtn/internal/obs"
)

// Metrics holds the selection subsystem's observability hooks. Every field
// is an optional nil-safe metric (a nil pointer no-ops), so the zero value
// disables instrumentation without any branching at the call sites.
type Metrics struct {
	// GainEvals counts candidate gain evaluations (the CELF hot loop).
	GainEvals *obs.Counter
	// Rounds counts committed greedy selections.
	Rounds *obs.Counter
	// Evaluators counts evaluator constructions (one per selection phase).
	Evaluators *obs.Counter
	// Scenarios observes the scenario count per evaluator.
	Scenarios *obs.Histogram
	// BaseFootprints counts footprints added to evaluator bases: the
	// command-center ledger's and sure background nodes'. A session that
	// extends its kept base adds only the ledger's new photos.
	BaseFootprints *obs.Counter
}

// ObserverMetrics builds selection metrics bound to an observer's registry
// (all nil — disabled — when o is nil).
func ObserverMetrics(o *obs.Observer) Metrics {
	return Metrics{
		GainEvals:      o.Counter("selection.gain_evals"),
		Rounds:         o.Counter("selection.rounds"),
		Evaluators:     o.Counter("selection.evaluators"),
		Scenarios:      o.Histogram("selection.scenarios"),
		BaseFootprints: o.Counter("selection.base_footprints"),
	}
}

// Config tunes the expected-coverage evaluation.
type Config struct {
	// ExactLimit is the largest number of probabilistic background nodes
	// for which delivery outcomes are enumerated exactly (2^ExactLimit
	// scenarios). Beyond it, Monte Carlo sampling is used.
	ExactLimit int
	// Samples is the number of Monte Carlo scenarios.
	Samples int
	// Seed drives scenario sampling; callers should derive it
	// deterministically (e.g. from the contact) for reproducibility.
	Seed int64
	// Metrics optionally observes the selection machinery; the zero value
	// disables it at no cost. It only takes effect for direct selection
	// calls: core.Scheme.Init and peer.New overwrite it with their own
	// observer's metrics, so a value set through core.Config.Selection is
	// dropped. The facade's photodtn.WithObserver fills it via
	// ObserverMetrics.
	Metrics Metrics
}

// DefaultConfig returns evaluation parameters that keep per-contact cost
// low while leaving ranking quality indistinguishable from exact in
// simulation.
func DefaultConfig() Config {
	return Config{ExactLimit: 5, Samples: 24}
}

func (c Config) normalized() Config {
	if c.ExactLimit < 0 {
		c.ExactLimit = 0
	}
	if c.Samples <= 0 {
		c.Samples = 24
	}
	return c
}

// bgNode is a background participant reduced to its useful footprints.
type bgNode struct {
	p   float64
	fps []coverage.Footprint
}

// Evaluator computes expected coverage and expected marginal gains for
// photos being selected onto a single target node, against a fixed
// background of probabilistic nodes plus the command center's own
// collection (which is always "delivered", b_0 = 1).
//
// Every evaluator is owned by a Session, which supplies the recycled arenas
// (candidates, heaps, residuals) selection runs on and revives the
// evaluator's DeltaSet, with the coverage states it owns, for each phase.
type Evaluator struct {
	ds      coverage.DeltaSet
	sess    *Session
	metrics Metrics
}

// NewEvaluator builds an evaluator on a fresh session. ccFPs are the
// footprints of the photos already at the command center; background holds
// the other nodes of M with their delivery probabilities and the footprints
// of their photos. Contact-rate callers should keep a Session instead, which
// recycles everything an evaluator allocates from contact to contact.
func NewEvaluator(m *coverage.Map, cfg Config, ccFPs []coverage.Footprint, background []bgNode) *Evaluator {
	return NewSession().fpEvaluator(m, cfg, ccFPs, background)
}

// init (re)builds the session's evaluator in place on the base its caller
// filled with the command center's footprints (and so reuses the coverage
// states of the previous phase).
func (e *Evaluator) init(cfg Config, background []bgNode) {
	cfg = cfg.normalized()
	base := e.ds.Base()
	// Nodes that deliver surely belong in the base; nodes that never
	// deliver or have no useful photos can be dropped.
	s := e.sess
	live := s.live[:0]
	for _, b := range background {
		if len(b.fps) == 0 || b.p <= 0 {
			continue
		}
		if b.p >= 1 {
			s.forgetLedger()
			for _, fp := range b.fps {
				base.Add(fp)
			}
			cfg.Metrics.BaseFootprints.Add(int64(len(b.fps)))
			continue
		}
		live = append(live, b)
	}
	s.live = live
	e.compileLive(0)
	e.build(cfg)
}

// extend turns the evaluator of phase 1 into the one a fresh init would
// build with node appended to phase 1's background: phase 2 of Reallocate,
// whose background differs only by the first node's selection. The base
// and every compiled live residual stay; only node's residuals are
// compiled, and the scenarios are rebuilt by the same exact-or-sampled
// rule, with sampling continuing phase 1's draws. It returns false, and
// changes nothing, when node would join the base: the caller must then
// init afresh.
func (e *Evaluator) extend(cfg Config, node bgNode) bool {
	cfg = cfg.normalized()
	useful := len(node.fps) > 0
	if useful && node.p >= 1 {
		return false
	}
	e.ds.ClearScenarios()
	if s := e.sess; useful && node.p > 0 {
		s.live = append(s.live, node)
		e.compileLive(len(s.live) - 1)
	}
	e.build(cfg)
	return true
}

// build adds the scenario family of the session's live nodes to the
// evaluator: all outcomes up to ExactLimit live nodes, sampled ones beyond.
func (e *Evaluator) build(cfg Config) {
	e.metrics = cfg.Metrics
	if live := e.sess.live; len(live) <= cfg.ExactLimit {
		e.enumerate(live)
	} else {
		e.sample(live, cfg)
	}
	e.metrics.Evaluators.Inc()
	e.metrics.Scenarios.Observe(float64(e.ds.Scenarios()))
}

// compileLive subtracts the (now final) base from the footprints of the
// session's live nodes from index from on, once; scenario construction then
// replays the cheap residuals instead of re-subtracting the base per
// outcome. Residuals of earlier nodes are kept as compiled. The residuals
// and the index come from the session's arenas, so compiled arc and entry
// storage survives from contact to contact.
func (e *Evaluator) compileLive(from int) {
	s := e.sess
	total := 0
	for _, b := range s.live {
		total += len(b.fps)
	}
	if len(s.residFlat) < total {
		grown := make([]coverage.Residual, total)
		copy(grown, s.residFlat) // keep the compiled and the recycled storage
		s.residFlat = grown
	}
	resid := s.residIdx[:0]
	k := 0
	for i, b := range s.live {
		sub := s.residFlat[k : k+len(b.fps) : k+len(b.fps)]
		k += len(b.fps)
		if i >= from {
			for j, fp := range b.fps {
				e.ds.CompileResidual(fp, &sub[j])
			}
		}
		resid = append(resid, sub)
	}
	s.residIdx = resid
}

// enumerate builds all 2^k delivery outcomes of the live background nodes
// as overlays on the shared base.
func (e *Evaluator) enumerate(live []bgNode) {
	resid := e.sess.residIdx
	n := len(live)
	total := 1 << n
	e.ds.Reserve(total)
	for mask := 0; mask < total; mask++ {
		w := 1.0
		for i, b := range live {
			if mask&(1<<i) != 0 {
				w *= b.p
			} else {
				w *= 1 - b.p
			}
		}
		if w <= 0 {
			continue
		}
		si := e.ds.AddScenario(w)
		for i := range live {
			if mask&(1<<i) != 0 {
				for j := range resid[i] {
					e.ds.AddResidual(si, &resid[i][j])
				}
			}
		}
	}
}

// sample builds Monte Carlo delivery outcomes with common random numbers:
// sample s delivers live node i when draw s·len(live)+i of cfg.Seed's
// stream falls below its probability.
func (e *Evaluator) sample(live []bgNode, cfg Config) {
	resid := e.sess.residIdx
	e.ds.Reserve(cfg.Samples)
	draws := e.sess.draws(cfg.Seed, cfg.Samples*len(live))
	w := 1.0 / float64(cfg.Samples)
	for s := 0; s < cfg.Samples; s++ {
		si := e.ds.AddScenario(w)
		for i, b := range live {
			if draws[s*len(live)+i] < b.p {
				for j := range resid[i] {
					e.ds.AddResidual(si, &resid[i][j])
				}
			}
		}
	}
}

// Gain returns the expected marginal coverage gain of the footprint,
// conditioned on the target node delivering its photos. Scaling by the
// target's own delivery probability is left to the caller: the scale is
// common to every candidate, so it affects neither ranking nor the
// "no more benefit" stopping rule.
func (e *Evaluator) Gain(fp coverage.Footprint) coverage.Coverage {
	return e.ds.Gain(fp)
}

// Commit adds the footprint to every scenario: the target node now holds
// the photo in all outcomes where it delivers (which, within one selection
// phase, is the conditional world Gain already lives in).
func (e *Evaluator) Commit(fp coverage.Footprint) {
	e.ds.Commit(fp)
}

// Expected returns the expected coverage of the current scenario set,
// E_B[C_ph(∪ delivered)].
func (e *Evaluator) Expected() coverage.Coverage {
	return e.ds.Expected()
}

// Scenarios returns the number of delivery outcomes the evaluator tracks.
func (e *Evaluator) Scenarios() int {
	return e.ds.Scenarios()
}

// Release returns the evaluator's coverage states to the map's pool; the
// evaluator must not be used afterwards. Callers that drop the session —
// NewEvaluator's one-shot evaluators — release so later evaluators on the
// map can reuse the states. A session's own phases skip it: the session
// keeps the states and its next phase runs on them, so its steady-state
// allocation does not depend on what the shared pool holds.
func (e *Evaluator) Release() {
	if e.ds.Base() == nil {
		return
	}
	e.sess.forgetLedger()
	e.ds.Release()
}

// footprintsOf compiles the useful (non-empty) footprints of a collection
// through the memoizing cache.
func footprintsOf(fpc *coverage.FootprintCache, photos model.PhotoList) []coverage.Footprint {
	return fpc.AppendUseful(nil, photos)
}

// ExpectedCoverage evaluates Definition 2 for a node set M: the command
// center's photos (delivered with certainty) plus participants, each a
// metadata snapshot whose photos are delivered independently with its
// probability P. It uses the same exact/Monte-Carlo machinery as the
// selection algorithm.
func ExpectedCoverage(m *coverage.Map, cfg Config, ccPhotos model.PhotoList, parts []metadata.Entry) coverage.Coverage {
	fpc := coverage.NewFootprintCache(m)
	bg := make([]bgNode, 0, len(parts))
	for _, p := range parts {
		bg = append(bg, bgNode{p: p.P, fps: footprintsOf(fpc, p.Photos)})
	}
	ev := NewEvaluator(m, cfg, footprintsOf(fpc, ccPhotos), bg)
	defer ev.Release()
	return ev.Expected()
}

// ExactExpectedCoverage evaluates Definition 2 by direct enumeration of all
// 2^m outcomes, independent of the Evaluator machinery. It exists as an
// oracle for tests and ablation benchmarks; cost is exponential in
// len(parts).
func ExactExpectedCoverage(m *coverage.Map, ccPhotos model.PhotoList, parts []metadata.Entry) coverage.Coverage {
	var total coverage.Coverage
	n := len(parts)
	for mask := 0; mask < 1<<n; mask++ {
		w := 1.0
		photos := ccPhotos.Clone()
		for i, p := range parts {
			if mask&(1<<i) != 0 {
				w *= p.P
				photos = append(photos, p.Photos...)
			} else {
				w *= 1 - p.P
			}
		}
		if w == 0 {
			continue
		}
		total = total.Add(m.Of(photos).Scale(w))
	}
	return total
}
