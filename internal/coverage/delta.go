package coverage

import (
	"slices"

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
// Scenario weights are the outcome probabilities. Gain sums per-entry
// contributions in entry order, each reduced over scenarios in insertion
// order, and Expected reduces over scenarios in insertion order, so results
// are deterministic.
//
// A DeltaSet owns the states it runs on and keeps them from one life (see
// Begin) to the next, so the allocation of a long run of contacts does not
// depend on what a shared pool happens to hold.
//
// A DeltaSet is not safe for concurrent use: selection drives it from one
// goroutine per contact.
type DeltaSet struct {
	base  *State
	scens []scenOverlay
	// overlays holds every overlay state d owns; scenario i runs on
	// overlays[i], and those past len(scens) are reset and idle.
	overlays []*State
	buf      []geo.Arc // residual pieces minus a scenario overlay (profile path)
	commn    Residual  // reusable residual for Commit and Gain
}

// scenOverlay is one delivery outcome: probability weight, the arcs added
// beyond the base, and the coverage those arcs contribute beyond the base.
type scenOverlay struct {
	w     float64
	st    *State // overlay arcs; its cov field is unused
	extra Coverage
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

// Begin starts a new life of d against map m and returns its empty base
// state. The caller fills the base before the first AddScenario and must
// not mutate it afterwards. The base and the overlays of d's previous life
// on m are reset and handed out again in the same order, each with the
// storage it grew; states of another map go back to that map's pool.
// Begin is valid on the zero value and after Release.
func (d *DeltaSet) Begin(m *Map) *State {
	if d.base != nil && d.base.m != m {
		d.Release()
	}
	if d.base == nil {
		d.base = m.AcquireState()
	} else {
		d.base.Reset()
	}
	for i := range d.scens {
		d.scens[i].st.Reset()
	}
	d.scens = d.scens[:0]
	return d.base
}

// Base returns the shared base state (read-only).
func (d *DeltaSet) Base() *State { return d.base }

// Scenarios returns the number of delivery outcomes tracked.
func (d *DeltaSet) Scenarios() int { return len(d.scens) }

// Reserve pre-sizes the scenario and overlay lists for n outcomes,
// avoiding growth reallocations during construction.
func (d *DeltaSet) Reserve(n int) {
	if cap(d.scens) < n {
		d.scens = slices.Grow(d.scens, n-len(d.scens))
	}
	if cap(d.overlays) < n {
		d.overlays = slices.Grow(d.overlays, n-len(d.overlays))
	}
}

// AddScenario appends a delivery outcome with probability weight w and
// returns its index. Populate it with AddResidual.
func (d *DeltaSet) AddScenario(w float64) int {
	si := len(d.scens)
	if si == len(d.overlays) {
		d.overlays = append(d.overlays, d.base.m.AcquireState())
	}
	d.scens = append(d.scens, scenOverlay{w: w, st: d.overlays[si]})
	return si
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
// footprint: one base subtraction into the internal scratch residual, then
// GainResidual.
func (d *DeltaSet) Gain(fp Footprint) Coverage {
	d.CompileResidual(fp, &d.commn)
	return d.GainResidual(&d.commn)
}

// GainResidual returns the scenario-weighted expected marginal gain of a
// compiled residual: Σ entryGain in entry order, so the result is
// deterministic.
func (d *DeltaSet) GainResidual(r *Residual) Coverage {
	var g Coverage
	for i := range r.entries {
		re := &r.entries[i]
		pt, as := d.entryGain(re, r.arcs[re.lo:re.hi])
		g.Point += pt
		g.Aspect += as
	}
	return g
}

// entryGain computes one residual entry's scenario-weighted contribution:
// Σ_si w_si · gain(entry, scenario si). No geometry runs for scenarios whose
// overlay misses the entry's PoI — the common case — and the rest subtract
// only against the (small) overlay.
func (d *DeltaSet) entryGain(re *residEntry, pieces []geo.Arc) (pt, as float64) {
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
// DeltaSet must not be used afterwards except through Begin; compiled
// Residuals die either way.
func (d *DeltaSet) Release() {
	m := d.base.m
	m.ReleaseState(d.base)
	d.base = nil
	for i, st := range d.overlays {
		m.ReleaseState(st)
		d.overlays[i] = nil
	}
	d.overlays = d.overlays[:0]
	clear(d.scens)
	d.scens = d.scens[:0]
}
