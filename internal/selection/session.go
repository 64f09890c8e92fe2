package selection

import (
	"sync"

	"photodtn/internal/coverage"
	"photodtn/internal/model"
)

// Session is a reusable arena for contact-scale selection. A scheme runs a
// full reallocation at every contact, and without a session each contact
// rebuilds the same transient machinery from scratch: the candidate pool and
// its dedup map, the CELF heap, the compiled background residuals, the
// scenario overlay list, and the evaluator itself. A Session owns all of
// that storage and recycles it from contact to contact, so steady-state
// selection allocates almost nothing.
//
// Lifecycle and ownership rules:
//
//   - One Session serves one scheme instance (or one goroutine): its methods
//     must not be called concurrently.
//   - Slices returned by Session.BuildPool alias the arena and are valid
//     only until the session's next call; GreedyFill's selected lists are
//     freshly allocated and safe to retain.
//   - AcquireSession/Release recycle whole sessions through a sync.Pool
//     (mirroring coverage.AcquireState) for transient callers such as the
//     package-level Reallocate and SelectForUpload wrappers. Long-lived
//     owners like core.Scheme simply keep one NewSession for their lifetime.
//
// A session is not tied to a particular map: all cached storage is reset or
// recompiled per contact, so one session may serve contacts against
// different coverage maps.
type Session struct {
	ev Evaluator // reusable evaluator shell and its scenario family

	seen      map[model.PhotoID]bool // BuildPool dedup scratch
	pool      []Item
	live      []bgNode
	bg, bg2   []bgNode
	fps       []coverage.Footprint // arena behind footprints()
	residFlat []coverage.Residual  // compiled background residuals
	residIdx  [][]coverage.Residual
	cands     candArena
	heapItems []*cand
}

// NewSession returns an empty session ready for use.
func NewSession() *Session {
	s := &Session{seen: make(map[model.PhotoID]bool)}
	s.ev.sess = s
	return s
}

var sessionPool = sync.Pool{New: func() any { return NewSession() }}

// AcquireSession takes a recycled session from the shared pool.
func AcquireSession() *Session {
	return sessionPool.Get().(*Session)
}

// Release returns the session to the shared pool. The caller must not use
// the session — or anything that aliases its arenas — afterwards.
func (s *Session) Release() {
	sessionPool.Put(s)
}

// evaluator rebuilds the session's evaluator in place for one selection
// phase; the caller must Release it (which keeps the shell for reuse)
// before requesting the next one.
func (s *Session) evaluator(m *coverage.Map, cfg Config, ccFPs []coverage.Footprint, bg []bgNode) *Evaluator {
	e := &s.ev
	e.init(m, cfg, ccFPs, bg)
	return e
}

// footprints compiles the useful footprints of a collection into the
// session's footprint arena and returns the collection's span. Earlier
// spans stay valid when the arena grows: they keep aliasing the old backing
// array, whose entries never change.
func (s *Session) footprints(fpc *coverage.FootprintCache, photos model.PhotoList) []coverage.Footprint {
	start := len(s.fps)
	for _, p := range photos {
		if fp := fpc.Of(p); !fp.IsEmpty() {
			s.fps = append(s.fps, fp)
		}
	}
	return s.fps[start:len(s.fps):len(s.fps)]
}

// BuildPool is the session form of the package-level BuildPool: identical
// pools, but the dedup map and the item slice are recycled. The returned
// slice aliases the session and is valid until the next BuildPool call.
func (s *Session) BuildPool(fpc *coverage.FootprintCache, collections ...model.PhotoList) []Item {
	clear(s.seen)
	s.pool = appendPool(s.pool[:0], s.seen, fpc, collections)
	return s.pool
}

// candArena hands out candidate structs with stable addresses (the CELF
// heap stores pointers) while recycling their residual and gain-cache
// storage across contacts. Allocation is in fixed blocks so earlier blocks
// never move when the arena grows.
type candArena struct {
	blocks [][]cand
	n      int // candidates handed out since the last reset
}

// candBlock is small because a fresh session (every NewEvaluator) fills
// its arena once: a block far larger than a typical pool would be zeroed
// and thrown away.
const candBlock = 16

func (a *candArena) take() *cand {
	bi, off := a.n/candBlock, a.n%candBlock
	if bi == len(a.blocks) {
		a.blocks = append(a.blocks, make([]cand, candBlock))
	}
	a.n++
	c := &a.blocks[bi][off]
	c.item = Item{}
	c.compiled = false
	c.gcache.Reset()
	c.gain = coverage.Coverage{}
	c.round = 0
	return c
}

func (a *candArena) reset() { a.n = 0 }
