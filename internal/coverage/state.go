package coverage

import (
	"photodtn/internal/geo"
	"photodtn/internal/model"
)

// arenaBlockSize is the number of ArcSets allocated per arena block. Blocks
// are recycled wholesale on Reset, so the arena amortises both the ArcSet
// headers and their interval slices across a state's lifetimes.
const arenaBlockSize = 64

// arcArena hands out ArcSets from reusable blocks. Recycled sets keep their
// interval storage, so a state that is Reset and refilled allocates nothing
// in steady state.
type arcArena struct {
	blocks [][]geo.ArcSet
	n      int // sets handed out since the last reset
}

// take returns an empty ArcSet, reusing a recycled one when available.
func (a *arcArena) take() *geo.ArcSet {
	bi, off := a.n/arenaBlockSize, a.n%arenaBlockSize
	if bi == len(a.blocks) {
		a.blocks = append(a.blocks, make([]geo.ArcSet, arenaBlockSize))
	}
	s := &a.blocks[bi][off]
	a.n++
	s.Reset() // recycled set: drop stale intervals, keep capacity
	return s
}

// reset recycles every handed-out set at once.
func (a *arcArena) reset() { a.n = 0 }

// State is the coverage of a photo collection F with respect to a Map. It
// tracks, per touched PoI, the union of covered aspect arcs, and maintains
// the aggregate Coverage value incrementally.
//
// The representation is dense: arc sets live in a flat slice indexed by PoI
// slot (no map lookups or rehashing on the hot path), the sets themselves
// come from a per-state arena, and Reset recycles everything, so a state can
// be refilled repeatedly without allocating. Acquire one from the Map's pool
// with AcquireState when states are created and dropped per contact.
//
// State is the workhorse of the selection algorithm: adding a footprint is
// O(size of the footprint), and Gain answers "how much would C_ph grow if
// this photo were added" without mutating the state.
//
// A State is not safe for concurrent mutation. A state that is no longer
// mutated may be read concurrently (Gain, Coverage, AspectOf, ... are pure
// reads).
type State struct {
	m *Map
	// arcs is indexed by PoI slot; nil means the PoI is not point-covered.
	arcs []*geo.ArcSet
	// touched lists the covered PoI slots in first-touch order, making
	// iteration deterministic and Reset O(covered).
	touched []int32
	arena   arcArena
	cov     Coverage
	// pooled marks a state currently sitting in the map's recycling pool;
	// ReleaseState uses it to catch double releases, which would hand the
	// same state out twice and silently corrupt two contacts' coverage.
	pooled bool
}

// NewState returns the empty coverage state for the map.
func (m *Map) NewState() *State {
	return &State{m: m, arcs: make([]*geo.ArcSet, len(m.pois))}
}

// AcquireState returns an empty state from the map's recycling pool (or a
// fresh one). Release it with ReleaseState when done; states that are never
// released are simply collected by the GC.
func (m *Map) AcquireState() *State {
	if v := m.statePool.Get(); v != nil {
		s := v.(*State) // reset on release
		s.pooled = false
		return s
	}
	return m.NewState()
}

// ReleaseState resets the state and returns it to the map's pool for reuse.
// The state must not be used afterwards. States belonging to another map
// (and nil) are ignored. Releasing the same state twice panics: the pool
// would hand it out to two callers at once, and the resulting shared
// mutation is far harder to debug than a loud failure at the misuse site.
func (m *Map) ReleaseState(s *State) {
	if s == nil || s.m != m {
		return
	}
	if s.pooled {
		panic("coverage: State released twice")
	}
	s.Reset()
	s.pooled = true
	m.statePool.Put(s)
}

// Map returns the map the state is defined against.
func (s *State) Map() *Map { return s.m }

// Coverage returns the aggregate photo coverage C_ph of everything added.
func (s *State) Coverage() Coverage { return s.cov }

// PoICovered reports whether the PoI at index i is point-covered.
func (s *State) PoICovered(i int) bool {
	return i >= 0 && i < len(s.arcs) && s.arcs[i] != nil
}

// NumCovered returns the number of point-covered PoIs (unweighted).
func (s *State) NumCovered() int { return len(s.touched) }

// AspectOf returns the covered aspect measure (radians, unweighted) of the
// PoI at index i.
func (s *State) AspectOf(i int) float64 {
	if i < 0 || i >= len(s.arcs) || s.arcs[i] == nil {
		return 0
	}
	return s.arcs[i].Measure()
}

// arcsAt returns the arc set of the PoI slot, or nil when uncovered. The
// caller must not mutate it.
func (s *State) arcsAt(i int) *geo.ArcSet { return s.arcs[i] }

// open gives the uncovered PoI slot an empty arc set and returns it. The
// state's coverage is the caller's to maintain.
func (s *State) open(poi int32) *geo.ArcSet {
	as := s.arena.take()
	s.arcs[poi] = as
	s.touched = append(s.touched, poi)
	return as
}

// Add unions a footprint into the state and returns the realised coverage
// gain.
func (s *State) Add(fp Footprint) Coverage {
	var gain Coverage
	for _, e := range fp.Entries {
		w := s.m.pois[e.PoI].Weight
		as := s.arcs[e.PoI]
		if as == nil {
			as = s.arena.take()
			s.arcs[e.PoI] = as
			s.touched = append(s.touched, int32(e.PoI))
			gain.Point += w
		}
		gain.Aspect += w * s.m.aspectGain(e.PoI, as, e.Arc)
		as.Add(e.Arc)
	}
	s.cov = s.cov.Add(gain)
	return gain
}

// AddPhoto compiles the photo's footprint and adds it.
func (s *State) AddPhoto(p model.Photo) Coverage {
	return s.Add(s.m.Footprint(p))
}

// AddPhotos adds every photo of the list and returns the total gain.
func (s *State) AddPhotos(l model.PhotoList) Coverage {
	var gain Coverage
	for _, p := range l {
		gain = gain.Add(s.AddPhoto(p))
	}
	return gain
}

// Gain returns the coverage gain Add(fp) would realise, without mutating
// the state.
func (s *State) Gain(fp Footprint) Coverage {
	var gain Coverage
	for _, e := range fp.Entries {
		w := s.m.pois[e.PoI].Weight
		as := s.arcs[e.PoI]
		if as == nil {
			gain.Point += w
			gain.Aspect += w * s.m.arcMeasure(e.PoI, e.Arc)
			continue
		}
		gain.Aspect += w * s.m.aspectGain(e.PoI, as, e.Arc)
	}
	return gain
}

// Union merges another state (defined on the same map) into s. Iteration
// follows o's first-touch order, so the result is deterministic.
func (s *State) Union(o *State) {
	if o == nil {
		return
	}
	for _, i32 := range o.touched {
		i := int(i32)
		oas := o.arcs[i]
		w := s.m.pois[i].Weight
		as := s.arcs[i]
		if as == nil {
			as = s.arena.take()
			s.arcs[i] = as
			s.touched = append(s.touched, i32)
			s.cov.Point += w
		}
		for _, a := range oas.Arcs() {
			s.cov.Aspect += w * s.m.aspectGain(i, as, a)
			as.Add(a)
		}
	}
}

// Clone returns a deep copy of the state. The copy's storage is sized
// exactly from the source — nothing grows or rehashes afterwards.
func (s *State) Clone() *State {
	c := &State{
		m:       s.m,
		arcs:    make([]*geo.ArcSet, len(s.arcs)),
		touched: append(make([]int32, 0, len(s.touched)), s.touched...),
		cov:     s.cov,
	}
	for _, i := range s.touched {
		as := c.arena.take()
		as.CopyFrom(s.arcs[i])
		c.arcs[i] = as
	}
	return c
}

// Reset empties the state, recycling every arc set for reuse.
func (s *State) Reset() {
	for _, i := range s.touched {
		s.arcs[i] = nil
	}
	s.touched = s.touched[:0]
	s.arena.reset()
	s.cov = Coverage{}
}

// Of computes the photo coverage C_ph(X, F) of a photo collection in one
// shot. It is a convenience for callers that do not need incremental state.
func (m *Map) Of(photos model.PhotoList) Coverage {
	st := m.AcquireState()
	defer m.ReleaseState(st)
	st.AddPhotos(photos)
	return st.Coverage()
}

// Normalized converts a coverage value into the paper's reporting units:
// point coverage as a fraction of total PoI weight, and aspect coverage as
// the mean covered angle per PoI in radians (divide by 2π for a fraction).
func (m *Map) Normalized(c Coverage) (pointFrac, aspectMeanRad float64) {
	if m.totalWt == 0 {
		return 0, 0
	}
	return c.Point / m.totalWt, c.Aspect / m.totalWt
}
