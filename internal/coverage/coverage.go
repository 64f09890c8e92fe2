// Package coverage implements the photo coverage model of §II of the paper:
// point coverage, aspect coverage, and their lexicographic combination.
//
// The package is built around three ideas:
//
//   - A Map fixes the PoI list X and the effective angle θ, and compiles a
//     photo's metadata into a Footprint — the exact set of (PoI, aspect arc)
//     contributions the photo can ever make. Footprints are cheap to compute
//     (a spatial grid prunes candidate PoIs) and make every subsequent
//     coverage query independent of geometry.
//   - A State is the coverage of a photo collection: per-PoI aspect arc
//     unions plus the aggregate lexicographic Coverage value. States support
//     O(footprint) incremental addition and non-mutating marginal-gain
//     queries, which is what the greedy selection algorithm of §III-D needs.
//   - Coverage is the lexicographic pair (Σ point coverage, Σ aspect
//     coverage) of Definition 1, with the weighted extension of §II-C.
package coverage

import (
	"fmt"
	"math"
	"sync"

	"photodtn/internal/geo"
	"photodtn/internal/model"
)

// Coverage is the photo coverage value C_ph = (C_pt, C_as) of Definition 1.
// Point is the (weighted) number of covered PoIs; Aspect is the (weighted)
// total covered aspect measure in radians. Values compare lexicographically:
// point coverage dominates.
type Coverage struct {
	Point  float64
	Aspect float64
}

// cmpEps absorbs floating-point noise when comparing coverage values.
const cmpEps = 1e-9

// Add returns the component-wise sum c + o.
func (c Coverage) Add(o Coverage) Coverage {
	return Coverage{Point: c.Point + o.Point, Aspect: c.Aspect + o.Aspect}
}

// Sub returns the component-wise difference c - o.
func (c Coverage) Sub(o Coverage) Coverage {
	return Coverage{Point: c.Point - o.Point, Aspect: c.Aspect - o.Aspect}
}

// Scale returns c scaled by k in both components. Scaling by a probability
// is how expected coverage weights an outcome (Definition 2).
func (c Coverage) Scale(k float64) Coverage {
	return Coverage{Point: c.Point * k, Aspect: c.Aspect * k}
}

// Cmp compares lexicographically: -1 if c < o, 0 if equal (within epsilon),
// +1 if c > o.
func (c Coverage) Cmp(o Coverage) int {
	switch {
	case c.Point < o.Point-cmpEps:
		return -1
	case c.Point > o.Point+cmpEps:
		return 1
	case c.Aspect < o.Aspect-cmpEps:
		return -1
	case c.Aspect > o.Aspect+cmpEps:
		return 1
	default:
		return 0
	}
}

// Less reports whether c < o in lexicographic order.
func (c Coverage) Less(o Coverage) bool { return c.Cmp(o) < 0 }

// IsZero reports whether the coverage is zero (within epsilon).
func (c Coverage) IsZero() bool {
	return math.Abs(c.Point) <= cmpEps && math.Abs(c.Aspect) <= cmpEps
}

// String implements fmt.Stringer; aspect is reported in degrees.
func (c Coverage) String() string {
	return fmt.Sprintf("(pt=%.2f, as=%.1f°)", c.Point, geo.Degrees(c.Aspect))
}

// FootEntry is one contribution of a photo: it point-covers PoI (by index
// into the Map's PoI list) and covers the aspect arc Arc of that PoI.
type FootEntry struct {
	PoI int
	Arc geo.Arc
}

// Footprint is the complete set of contributions a photo makes against a
// Map. An empty footprint means the photo is irrelevant: it covers no PoI.
type Footprint struct {
	Entries []FootEntry
}

// IsEmpty reports whether the photo covers no PoI at all.
func (f Footprint) IsEmpty() bool { return len(f.Entries) == 0 }

// Map fixes the PoI list and effective angle and answers footprint queries.
// A Map is immutable after construction and safe for concurrent use.
type Map struct {
	pois     []model.PoI
	theta    float64
	cellSize float64
	origin   geo.Vec
	cols     int
	rows     int
	cells    [][]int32 // PoI indices per grid cell
	totalWt  float64
	profiles map[int]AspectProfile // sparse per-PoI aspect weighting

	// statePool recycles States across contacts (see AcquireState). It does
	// not affect the map's immutability: sync.Pool is concurrency-safe.
	statePool sync.Pool
}

// MapOption customises map construction.
type MapOption func(*Map)

// WithCellSize sets the spatial-grid cell edge.
func WithCellSize(size float64) MapOption {
	return func(m *Map) {
		if size > 0 {
			m.cellSize = size
		}
	}
}

// WithAspectProfile installs the §II-C weighted-aspect extension for the
// PoI at index i: covered aspects credit the profile's weight instead of 1.
// Out-of-range indices are ignored.
func WithAspectProfile(i int, p AspectProfile) MapOption {
	return func(m *Map) {
		if i < 0 || i >= len(m.pois) {
			return
		}
		p = p.normalized()
		if p.isUniform() {
			delete(m.profiles, i)
			return
		}
		m.profiles[i] = p
	}
}

// DefaultCellSize is the spatial-grid cell edge used when the caller does
// not specify one. It is on the order of a typical coverage range so a
// footprint query touches only a handful of cells.
const DefaultCellSize = 250.0

// NewMap builds a Map over the PoI list with effective angle theta (radians,
// the θ of §II-B). PoIs with non-positive weight are given unit weight.
func NewMap(pois []model.PoI, theta float64, opts ...MapOption) *Map {
	if theta < 0 {
		theta = 0
	}
	m := &Map{
		pois:     make([]model.PoI, len(pois)),
		theta:    theta,
		cellSize: DefaultCellSize,
		profiles: make(map[int]AspectProfile),
	}
	copy(m.pois, pois)
	for i := range m.pois {
		if m.pois[i].Weight <= 0 {
			m.pois[i].Weight = 1
		}
		m.totalWt += m.pois[i].Weight
	}
	for _, o := range opts {
		o(m)
	}
	m.buildGrid()
	return m
}

func (m *Map) buildGrid() {
	if len(m.pois) == 0 {
		m.cols, m.rows = 1, 1
		m.cells = make([][]int32, 1)
		return
	}
	minP := m.pois[0].Location
	maxP := minP
	for _, p := range m.pois[1:] {
		minP.X = math.Min(minP.X, p.Location.X)
		minP.Y = math.Min(minP.Y, p.Location.Y)
		maxP.X = math.Max(maxP.X, p.Location.X)
		maxP.Y = math.Max(maxP.Y, p.Location.Y)
	}
	m.origin = minP
	m.cols = int((maxP.X-minP.X)/m.cellSize) + 1
	m.rows = int((maxP.Y-minP.Y)/m.cellSize) + 1
	m.cells = make([][]int32, m.cols*m.rows)
	for i, p := range m.pois {
		c := m.cellIndex(p.Location)
		m.cells[c] = append(m.cells[c], int32(i))
	}
}

func (m *Map) cellIndex(p geo.Vec) int {
	cx := int((p.X - m.origin.X) / m.cellSize)
	cy := int((p.Y - m.origin.Y) / m.cellSize)
	if cx < 0 {
		cx = 0
	} else if cx >= m.cols {
		cx = m.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= m.rows {
		cy = m.rows - 1
	}
	return cy*m.cols + cx
}

// NumPoIs returns the number of PoIs on the map.
func (m *Map) NumPoIs() int { return len(m.pois) }

// PoI returns the i-th PoI.
func (m *Map) PoI(i int) model.PoI { return m.pois[i] }

// Theta returns the effective angle θ in radians.
func (m *Map) Theta() float64 { return m.theta }

// TotalWeight returns the sum of PoI weights (equals NumPoIs for unit
// weights); full point coverage equals this value.
func (m *Map) TotalWeight() float64 { return m.totalWt }

// Footprint compiles a photo into its footprint: every PoI the photo
// point-covers, each with the aspect arc of half-width θ centred on the
// PoI→camera direction (§II-B).
func (m *Map) Footprint(p model.Photo) Footprint {
	sec := p.Sector()
	var fp Footprint
	m.forEachCandidate(sec, func(i int) {
		poi := m.pois[i]
		if !sec.Contains(poi.Location) {
			return
		}
		center := sec.ViewAngleFrom(poi.Location)
		fp.Entries = append(fp.Entries, FootEntry{
			PoI: i,
			Arc: geo.ArcAround(center, m.theta),
		})
	})
	return fp
}

// forEachCandidate invokes fn with PoI indices whose grid cells intersect
// the sector's bounding box. It over-approximates; callers re-check
// containment.
func (m *Map) forEachCandidate(sec geo.Sector, fn func(i int)) {
	if len(m.pois) == 0 {
		return
	}
	b := sec.Bounds()
	x0 := int(math.Floor((b.Min.X - m.origin.X) / m.cellSize))
	x1 := int(math.Floor((b.Max.X - m.origin.X) / m.cellSize))
	y0 := int(math.Floor((b.Min.Y - m.origin.Y) / m.cellSize))
	y1 := int(math.Floor((b.Max.Y - m.origin.Y) / m.cellSize))
	if x1 < 0 || y1 < 0 || x0 >= m.cols || y0 >= m.rows {
		return
	}
	x0 = max(x0, 0)
	y0 = max(y0, 0)
	x1 = min(x1, m.cols-1)
	y1 = min(y1, m.rows-1)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, i := range m.cells[cy*m.cols+cx] {
				fn(int(i))
			}
		}
	}
}

// SoloCoverage returns the coverage a single photo achieves on its own:
// its point coverage and 2θ of aspect per covered PoI (no overlap is
// possible within one photo because one photo yields one arc per PoI).
// This is the "individual coverage" the ModifiedSpray baseline ranks by.
func (m *Map) SoloCoverage(p model.Photo) Coverage {
	fp := m.Footprint(p)
	var c Coverage
	for _, e := range fp.Entries {
		w := m.pois[e.PoI].Weight
		c.Point += w
		c.Aspect += w * m.arcMeasure(e.PoI, e.Arc)
	}
	return c
}

// AspectProfileOf returns the installed aspect profile of the PoI, or the
// uniform profile.
func (m *Map) AspectProfileOf(i int) AspectProfile {
	if p, ok := m.profiles[i]; ok {
		return p
	}
	return UniformProfile()
}

// arcMeasure returns the (possibly profile-weighted) measure of one arc at
// the given PoI.
func (m *Map) arcMeasure(poi int, a geo.Arc) float64 {
	if p, ok := m.profiles[poi]; ok {
		return p.MeasureArc(a)
	}
	return a.Width
}

// aspectGain returns the (possibly profile-weighted) new-aspect measure of
// adding arc a to the PoI's covered set.
func (m *Map) aspectGain(poi int, covered *geo.ArcSet, a geo.Arc) float64 {
	if p, ok := m.profiles[poi]; ok {
		return p.MeasureArcs(covered.Uncovered(a))
	}
	return covered.Gain(a)
}
