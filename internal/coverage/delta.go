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
//     an overlay lookup (usually nil, answered by a measure computed once
//     per entry) plus, rarely, a small subtraction against its own overlay.
//
// Commits go to one committed layer that all scenarios share, not into every
// overlay. After scenario construction, a scenario's overlay at a PoI where
// it delivered nothing would only ever receive the committed pieces, in
// commit order, so it would hold exactly the committed layer's arcs there.
// The layer stands in for all those copies: an overlay changes only at PoIs
// where its scenario has delivery arcs of its own, and a scenario whose
// overlay misses a PoI reads the committed layer there. Every measure is
// the one the per-overlay copy would give, from the same arcs by the same
// expression, so the results are bit-identical to committing into each
// overlay.
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
	base *State
	// comm is the committed layer: the union of every Commit's residual
	// pieces, read by each scenario at the PoIs its overlay misses. It is
	// acquired by the first Commit over two or more scenarios: with one
	// scenario, that scenario's overlay is the only copy and takes the
	// commits itself.
	comm      *State
	committed bool // the scenario family has a Commit
	scens     []scenOverlay
	// overlays holds every overlay state d owns; scenario i runs on
	// overlays[i], and those past len(scens) are reset and idle.
	overlays []*State
	buf      []geo.Arc // residual pieces minus an arc set (profile path)
	commn    Residual  // reusable residual for Commit and Gain
}

// scenOverlay is one delivery outcome: probability weight, the arcs added
// beyond the base, and the coverage the outcome holds beyond the base
// (its delivery arcs plus every commit).
type scenOverlay struct {
	w     float64
	st    *State // delivery arcs, plus commits at their PoIs; cov is unused
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
// not mutate it afterwards. The base, the committed layer and the overlays
// of d's previous life on m are reset and handed out again in the same
// order, each with the storage it grew; states of another map go back to
// that map's pool. Begin is valid on the zero value and after Release.
func (d *DeltaSet) Begin(m *Map) *State {
	if d.base != nil && d.base.m != m {
		d.Release()
	}
	if d.base == nil {
		d.base = m.AcquireState()
	} else {
		d.base.Reset()
	}
	d.ClearScenarios()
	return d.base
}

// Resume starts a new life of d on the base its last life filled and
// returns that base. The scenarios and the committed layer are dropped as
// ClearScenarios drops them, and the base keeps everything added to it, so
// the caller can Add more before the first AddScenario. A state is the
// fold of its Adds in order, so a kept base that gets the Adds a rebuild
// would make after the kept ones ends as the rebuilt base would. Residuals
// compiled in the last life are stale once the base grows. Resume is valid
// only after Begin, while the base is held.
func (d *DeltaSet) Resume() *State {
	d.ClearScenarios()
	return d.base
}

// ClearScenarios drops every scenario and every commit but keeps the base,
// so residuals compiled against it stay valid. The next AddScenario starts
// a new scenario family on the same base.
func (d *DeltaSet) ClearScenarios() {
	for i := range d.scens {
		d.scens[i].st.Reset()
	}
	d.scens = d.scens[:0]
	if d.comm != nil {
		d.comm.Reset()
	}
	d.committed = false
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
// returns its index. Populate it with AddResidual. Scenarios are built
// before the first Commit: one added later would read the committed layer
// as its own.
func (d *DeltaSet) AddScenario(w float64) int {
	d.mustNotHaveCommitted()
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
// overlays stay small. It builds scenarios, so it too must precede the
// first Commit.
func (d *DeltaSet) AddResidual(si int, r *Residual) {
	d.mustNotHaveCommitted()
	d.addResidual(si, r)
}

// addResidual merges the residual into the scenario's own overlay.
func (d *DeltaSet) addResidual(si int, r *Residual) {
	sd := &d.scens[si]
	for i := range r.entries {
		re := &r.entries[i]
		pieces := r.arcs[re.lo:re.hi]
		if os := sd.st.arcs[re.poi]; os != nil {
			d.unionInto(sd, re, os, pieces)
			continue
		}
		if !re.basePt {
			sd.extra.Point += re.w
		}
		sd.extra.Aspect += re.w * re.freeAs
		os := sd.st.open(re.poi)
		for _, p := range pieces {
			os.Add(p)
		}
	}
}

// mustNotHaveCommitted panics when d has a commit in its current scenario
// family: building scenarios on top of commits would break the committed
// layer's contract.
func (d *DeltaSet) mustNotHaveCommitted() {
	if d.committed {
		panic("coverage: scenario built after Commit")
	}
}

// unionInto credits the scenario with the entry's pieces beyond its own
// overlay arcs os at the entry's PoI, then unions the pieces into os.
func (d *DeltaSet) unionInto(sd *scenOverlay, re *residEntry, os *geo.ArcSet, pieces []geo.Arc) {
	sd.extra.Aspect += re.w * d.measureBeyond(int(re.poi), os, pieces)
	for _, p := range pieces {
		os.Add(p)
	}
}

// measureBeyond returns the (profile-weighted) measure of the pieces that
// the arc set does not cover.
func (d *DeltaSet) measureBeyond(poi int, s *geo.ArcSet, pieces []geo.Arc) float64 {
	prof, ok := d.base.m.profiles[poi]
	if !ok {
		return s.GainArcs(pieces)
	}
	buf := d.buf[:0]
	for _, p := range pieces {
		buf = s.AppendUncovered(p, buf)
	}
	d.buf = buf[:0]
	return prof.MeasureArcs(buf)
}

// beyondComm returns what the entry adds to a scenario whose overlay misses
// its PoI: whether it newly point-covers the PoI, and the aspect measure of
// its pieces beyond the committed layer there.
func (d *DeltaSet) beyondComm(re *residEntry, pieces []geo.Arc) (newPt bool, as float64) {
	if d.comm == nil || d.comm.arcs[re.poi] == nil {
		return !re.basePt, re.freeAs
	}
	return false, d.measureBeyond(int(re.poi), d.comm.arcs[re.poi], pieces)
}

// Commit adds the footprint to every scenario — the fused form of "the
// selected photo is now part of each outcome". The base subtraction runs
// once, and so does the subtraction of the committed layer: every scenario
// whose overlay misses an entry's PoI gains the same measure there. Only
// scenarios with delivery arcs of their own at the PoI subtract and store
// the pieces themselves. A lone scenario takes the whole residual into its
// overlay, as it would any delivery: there is nothing to share, and a
// DeltaSet that never has two scenarios never pays for the layer's state.
func (d *DeltaSet) Commit(fp Footprint) {
	r := &d.commn
	d.CompileResidual(fp, r)
	d.committed = true
	if len(d.scens) == 1 {
		d.addResidual(0, r)
		return
	}
	if d.comm == nil {
		d.comm = d.base.m.AcquireState()
	}
	for i := range r.entries {
		re := &r.entries[i]
		pieces := r.arcs[re.lo:re.hi]
		newPt, as := d.beyondComm(re, pieces)
		for si := range d.scens {
			sd := &d.scens[si]
			if os := sd.st.arcs[re.poi]; os != nil {
				d.unionInto(sd, re, os, pieces)
				continue
			}
			if newPt {
				sd.extra.Point += re.w
			}
			sd.extra.Aspect += re.w * as
		}
		cs := d.comm.arcs[re.poi]
		if cs == nil {
			cs = d.comm.open(re.poi)
		}
		for _, p := range pieces {
			cs.Add(p)
		}
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
// Σ_si w_si · gain(entry, scenario si). Scenarios whose overlay misses the
// entry's PoI — the common case — share one subtraction of the committed
// layer, and the rest subtract only against their own (small) overlay.
func (d *DeltaSet) entryGain(re *residEntry, pieces []geo.Arc) (pt, as float64) {
	newPt, free := d.beyondComm(re, pieces)
	for si := range d.scens {
		w := d.scens[si].w
		if os := d.scens[si].st.arcs[re.poi]; os != nil {
			as += w * re.w * d.measureBeyond(int(re.poi), os, pieces)
			continue
		}
		if newPt {
			pt += w * re.w
		}
		as += w * re.w * free
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

// Release returns the base, the committed layer and every overlay to the
// map's state pool. The DeltaSet must not be used afterwards except through
// Begin; compiled Residuals die either way.
func (d *DeltaSet) Release() {
	m := d.base.m
	m.ReleaseState(d.base)
	m.ReleaseState(d.comm)
	d.base, d.comm = nil, nil
	for i, st := range d.overlays {
		m.ReleaseState(st)
		d.overlays[i] = nil
	}
	d.overlays = d.overlays[:0]
	clear(d.scens)
	d.scens = d.scens[:0]
}
