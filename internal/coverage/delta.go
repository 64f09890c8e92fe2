package coverage

import (
	"photodtn/internal/geo"
)

// DeltaSet evaluates expected marginal coverage over a family of delivery
// scenarios that share one immutable base state (Definition 2, §III-C).
//
// Instead of cloning the full base per scenario, every scenario is a sparse
// overlay that stores only the arcs its delivering nodes add *beyond* the
// base. Three consequences make this the hot-loop representation of choice:
//
//   - Construction is O(arcs actually delivered), not O(scenarios × base).
//   - The expensive part of every query — subtracting the base's covered
//     arcs from a footprint — is done once and cached as a Residual, shared
//     by all scenarios and all selection rounds (the base never mutates
//     after construction).
//   - Gain is fused into a single footprint walk: each scenario pays only
//     an overlay lookup (usually nil, answered by a precomputed measure)
//     plus, rarely, a small subtraction against its own overlay.
//
// Scenario weights are the outcome probabilities; Gain and Expected reduce
// over scenarios in insertion order, so results are deterministic.
//
// A DeltaSet is not safe for concurrent use: selection drives it from one
// goroutine per contact.
type DeltaSet struct {
	base  *State
	scens []scenOverlay
	sc    GainScratch // scratch for the serial entry points
	commn Residual    // reusable residual for Commit/AddToScenario

	// epoch is a monotone mutation counter: every overlay mutation bumps it
	// and stamps the touched PoIs in poiEpoch. A GainCache entry walked at
	// epoch E is stale iff its PoI was stamped after E. The counter never
	// resets — not even across Reuse — so stale stamps from a previous life
	// of the DeltaSet can never read as dirty by accident.
	epoch    int64
	poiEpoch []int64 // per-PoI slot epoch of the last overlay mutation
}

// scenOverlay is one delivery outcome: probability weight, the arcs added
// beyond the base, and the coverage those arcs contribute beyond the base.
type scenOverlay struct {
	w     float64
	st    *State // overlay arcs; its cov field is unused
	extra Coverage
}

// GainScratch holds the per-caller buffers of a fused gain query. The zero
// value is ready for use; buffers grow on demand.
type GainScratch struct {
	buf   []geo.Arc // residual pieces minus a scenario overlay (profile path)
	pt    []float64 // per-scenario point-gain accumulators
	as    []float64 // per-scenario aspect-gain accumulators
	resid Residual  // scratch residual for the one-shot GainWith path
}

// Residual is a footprint with the DeltaSet's base coverage subtracted
// out: per touched PoI, the arc pieces the base does not cover and their
// (profile-weighted) measure. Because the base is immutable once scenarios
// exist, a residual stays valid for the DeltaSet's whole lifetime and can
// be reused across every scenario, CELF round, and Commit.
//
// The zero value is ready for use; CompileResidual reuses its storage.
type Residual struct {
	arcs    []geo.Arc // backing storage for all entries' pieces
	entries []residEntry
}

type residEntry struct {
	poi    int32
	basePt bool // the base already point-covers the PoI
	w      float64
	lo, hi int32   // piece range within Residual.arcs
	freeAs float64 // aspect gain when a scenario's overlay misses the PoI
}

// NewDeltaSet returns an empty scenario family over the base state. The
// DeltaSet takes ownership of base: the caller must not mutate it
// afterwards, and Release returns it to the map's pool.
func NewDeltaSet(base *State) *DeltaSet {
	d := &DeltaSet{}
	d.Reuse(base)
	return d
}

// Reuse re-targets d at a new base state, recycling the scenario list, the
// per-PoI epoch table, and every scratch buffer from d's previous life.
// Equivalent to *d = *NewDeltaSet(base) but allocation-free in steady state;
// valid on the zero value and after Release. Like NewDeltaSet, it takes
// ownership of base.
func (d *DeltaSet) Reuse(base *State) {
	d.base = base
	d.scens = d.scens[:0]
	// The epoch counter keeps running across lives; a freshly grown epoch
	// table is all zeros, which is ≤ every stamp a cache could hold — safely
	// "clean" either way.
	if len(d.poiEpoch) < len(base.arcs) {
		d.poiEpoch = make([]int64, len(base.arcs))
	}
}

// Base returns the shared base state (read-only).
func (d *DeltaSet) Base() *State { return d.base }

// Scenarios returns the number of delivery outcomes tracked.
func (d *DeltaSet) Scenarios() int { return len(d.scens) }

// Reserve pre-sizes the scenario list for n outcomes, avoiding growth
// reallocations during construction.
func (d *DeltaSet) Reserve(n int) {
	if cap(d.scens) < n {
		scens := make([]scenOverlay, len(d.scens), n)
		copy(scens, d.scens)
		d.scens = scens
	}
}

// AddScenario appends a delivery outcome with probability weight w and
// returns its index. Populate it with AddResidual (or AddToScenario).
func (d *DeltaSet) AddScenario(w float64) int {
	d.scens = append(d.scens, scenOverlay{w: w, st: d.base.m.AcquireState()})
	return len(d.scens) - 1
}

// CompileResidual subtracts the base from the footprint into r, reusing
// r's storage. Entries the base fully covers are dropped. Read-only on the
// DeltaSet.
func (d *DeltaSet) CompileResidual(fp Footprint, r *Residual) {
	m := d.base.m
	r.arcs = r.arcs[:0]
	r.entries = r.entries[:0]
	for _, e := range fp.Entries {
		bs := d.base.arcs[e.PoI]
		start := len(r.arcs)
		r.arcs = bs.AppendUncovered(e.Arc, r.arcs)
		if bs != nil && len(r.arcs) == start {
			r.arcs = r.arcs[:start]
			continue // fully covered by the shared base: zero in every scenario
		}
		pieces := r.arcs[start:]
		var freeAs float64
		if prof, ok := m.profiles[e.PoI]; ok {
			freeAs = prof.MeasureArcs(pieces)
		} else {
			for _, p := range pieces {
				freeAs += p.Width
			}
		}
		r.entries = append(r.entries, residEntry{
			poi:    int32(e.PoI),
			basePt: bs != nil,
			w:      m.pois[e.PoI].Weight,
			lo:     int32(start),
			hi:     int32(len(r.arcs)),
			freeAs: freeAs,
		})
	}
}

// AddResidual merges a compiled residual into the scenario's overlay: the
// outcome now includes the photo. Only base-uncovered pieces are stored, so
// overlays stay small.
func (d *DeltaSet) AddResidual(si int, r *Residual) {
	m := d.base.m
	sd := &d.scens[si]
	d.epoch++
	for i := range r.entries {
		re := &r.entries[i]
		poi := int(re.poi)
		d.poiEpoch[poi] = d.epoch
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
				buf := d.sc.buf[:0]
				for _, p := range pieces {
					buf = os.AppendUncovered(p, buf)
				}
				d.sc.buf = buf[:0]
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

// AddToScenario adds a footprint to one scenario's overlay. Convenience
// wrapper over CompileResidual + AddResidual for one-shot additions.
func (d *DeltaSet) AddToScenario(si int, fp Footprint) {
	d.CompileResidual(fp, &d.commn)
	d.AddResidual(si, &d.commn)
}

// Commit adds the footprint to every scenario — the fused form of "the
// selected photo is now part of each outcome". The base subtraction runs
// once and is shared by all scenarios.
func (d *DeltaSet) Commit(fp Footprint) {
	d.CompileResidual(fp, &d.commn)
	for si := range d.scens {
		d.AddResidual(si, &d.commn)
	}
}

// Gain returns the scenario-weighted expected marginal gain of the
// footprint. See GainResidual for the cached-residual fast path.
func (d *DeltaSet) Gain(fp Footprint) Coverage {
	return d.GainWith(fp, &d.sc)
}

// GainWith is Gain with caller-supplied scratch: one base subtraction,
// fused over all scenarios.
func (d *DeltaSet) GainWith(fp Footprint, sc *GainScratch) Coverage {
	d.CompileResidual(fp, &sc.resid)
	return d.GainResidual(&sc.resid, sc)
}

// GainCached is GainResidual with the DeltaSet's own serial scratch, for
// callers that hold a compiled residual but no scratch of their own.
func (d *DeltaSet) GainCached(r *Residual) Coverage {
	return d.GainResidual(r, &d.sc)
}

// GainResidual returns the scenario-weighted expected marginal gain of a
// compiled residual. This is the CELF inner loop: no geometry runs at all
// for scenarios whose overlay misses the residual's PoIs — the common case
// — and the rest subtract only against the (small) overlay.
func (d *DeltaSet) GainResidual(r *Residual, sc *GainScratch) Coverage {
	n := len(d.scens)
	if cap(sc.pt) < n {
		sc.pt = make([]float64, n)
		sc.as = make([]float64, n)
	}
	pt, as := sc.pt[:n], sc.as[:n]
	for i := range pt {
		pt[i], as[i] = 0, 0
	}

	m := d.base.m
	for i := range r.entries {
		re := &r.entries[i]
		poi := int(re.poi)
		pieces := r.arcs[re.lo:re.hi]
		prof, hasProf := m.profiles[poi]
		for si := range d.scens {
			os := d.scens[si].st.arcs[poi]
			if os == nil {
				if !re.basePt {
					pt[si] += re.w
				}
				as[si] += re.w * re.freeAs
				continue
			}
			if hasProf {
				buf := sc.buf[:0]
				for _, p := range pieces {
					buf = os.AppendUncovered(p, buf)
				}
				sc.buf = buf[:0]
				as[si] += re.w * prof.MeasureArcs(buf)
			} else {
				as[si] += re.w * os.GainArcs(pieces)
			}
		}
	}

	var g Coverage
	for si := range d.scens {
		w := d.scens[si].w
		g.Point += w * pt[si]
		g.Aspect += w * as[si]
	}
	return g
}

// GainCache caches a residual's gain decomposed per PoI entry: entry i's
// scenario-weighted point and aspect contributions plus the DeltaSet epoch
// at which they were computed. Each residual entry touches exactly one PoI,
// so after a Commit only the entries whose PoI the commit stamped need a
// re-walk — every other entry's cached contribution is still bit-exact (the
// diminishing-returns upper bound becomes an equality for them).
//
// A GainCache belongs to one (DeltaSet, Residual) pair at a time; call
// Reset whenever either changes. The zero value is ready for use.
type GainCache struct {
	pt, as []float64 // per-entry scenario-weighted contributions
	epoch  []int64   // DeltaSet epoch each entry was last walked at
}

// Reset empties the cache; the next GainResidualCached walks every entry.
func (gc *GainCache) Reset() {
	gc.epoch = gc.epoch[:0]
}

// GainResidualCached is GainResidual with dirty-PoI invalidation: it re-walks
// only the entries whose PoI an overlay mutation touched since they were last
// cached and re-sums the per-entry contributions in entry order. Because the
// contributions of clean entries are reused bit-for-bit and the summation
// order is fixed, the result is identical whether zero or all entries were
// dirty — incremental equals from-scratch exactly, not approximately.
func (d *DeltaSet) GainResidualCached(r *Residual, gc *GainCache) Coverage {
	n := len(r.entries)
	fresh := len(gc.epoch) != n
	if fresh {
		if cap(gc.epoch) < n {
			gc.pt = make([]float64, n)
			gc.as = make([]float64, n)
			gc.epoch = make([]int64, n)
		}
		gc.pt, gc.as, gc.epoch = gc.pt[:n], gc.as[:n], gc.epoch[:n]
	}
	var g Coverage
	for i := range r.entries {
		re := &r.entries[i]
		if fresh || d.poiEpoch[re.poi] > gc.epoch[i] {
			gc.pt[i], gc.as[i] = d.entryGain(re, r.arcs[re.lo:re.hi], &d.sc)
			gc.epoch[i] = d.epoch
		}
		g.Point += gc.pt[i]
		g.Aspect += gc.as[i]
	}
	return g
}

// entryGain computes one residual entry's scenario-weighted contribution:
// Σ_si w_si · gain(entry, scenario si). This is the entry-major counterpart
// of GainResidual's scenario-major accumulation; the two differ only in
// floating-point association (well below Coverage's comparison epsilon).
func (d *DeltaSet) entryGain(re *residEntry, pieces []geo.Arc, sc *GainScratch) (pt, as float64) {
	m := d.base.m
	poi := int(re.poi)
	prof, hasProf := m.profiles[poi]
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
			buf := sc.buf[:0]
			for _, p := range pieces {
				buf = os.AppendUncovered(p, buf)
			}
			sc.buf = buf[:0]
			as += w * re.w * prof.MeasureArcs(buf)
		} else {
			as += w * re.w * os.GainArcs(pieces)
		}
	}
	return pt, as
}

// Expected returns the scenario-weighted expected coverage,
// E_B[C_ph(base ∪ overlay_B)].
func (d *DeltaSet) Expected() Coverage {
	var c Coverage
	for i := range d.scens {
		c = c.Add(d.base.cov.Add(d.scens[i].extra).Scale(d.scens[i].w))
	}
	return c
}

// Release returns the base and every overlay to the map's state pool. The
// DeltaSet must not be used afterwards — except through Reuse, which revives
// it against a new base; compiled Residuals and GainCaches die either way.
func (d *DeltaSet) Release() {
	m := d.base.m
	m.ReleaseState(d.base)
	d.base = nil
	for i := range d.scens {
		m.ReleaseState(d.scens[i].st)
		d.scens[i].st = nil
	}
	d.scens = d.scens[:0]
}
