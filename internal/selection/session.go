package selection

import (
	"math/rand"
	"sync"

	"photodtn/internal/coverage"
	"photodtn/internal/model"
	"photodtn/internal/obs"
)

// Session is a reusable arena for contact-scale selection. A scheme runs a
// full reallocation at every contact, and without a session each contact
// rebuilds the same transient machinery from scratch: the candidate pool and
// its dedup map, the CELF heap, the compiled background residuals, the
// scenario overlay list, and the evaluator itself. A Session owns all of
// that storage, including the evaluator's coverage states (base and
// scenario overlays), and recycles it from contact to contact, so
// steady-state selection allocates almost nothing, whatever the map's
// shared state pool holds.
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
//     owners like core.Scheme simply keep their NewSessions for their
//     lifetime.
//
// A session is not tied to a particular map: all cached storage is reset or
// recompiled per contact, so one session may serve contacts against
// different coverage maps (a change of map returns the coverage states to
// the old map's pool). The one exception is the evaluator's base: when the
// command-center ledger of a phase starts with the ledger the session's
// base was filled from, on the same footprint cache, the base is kept and
// extended by the rest (see ledgerBase).
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
	heap      candHeap        // GreedyFill's CELF queue, kept so heap.Init does not allocate it
	picked    model.PhotoList // GreedyFill's selection, copied out on return
	// rng is the Monte Carlo sampler, and drawn memoises every number it
	// drew since it was last seeded with drawSeed: the prefix of that
	// seed's stream, so both phases of a contact read one stream.
	rng      *rand.Rand
	drawSeed int64
	drawn    []float64
	// ledgerFPC, ledgerEpoch and ledgerIDs record what the evaluator's base
	// holds when it holds a command-center ledger and nothing else: the
	// useful footprints, read from ledgerFPC at ledgerEpoch, of the photos
	// ledgerIDs names, added in that order. ledgerFPC is nil when there is
	// no such record. The IDs are the session's own copy, never a caller's
	// list.
	ledgerFPC   *coverage.FootprintCache
	ledgerEpoch uint64
	ledgerIDs   []model.PhotoID
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
// phase, with the command-center ledger and the background nodes' sure
// deliveries in its base. The next call ends that phase: the evaluator
// returned before must not be used afterwards.
func (s *Session) evaluator(fpc *coverage.FootprintCache, cfg Config, ledger model.PhotoList, bg []bgNode) *Evaluator {
	s.ledgerBase(fpc, ledger, cfg.Metrics.BaseFootprints)
	e := &s.ev
	e.init(cfg, bg)
	return e
}

// fpEvaluator is evaluator with the command center given as footprints
// instead of a ledger: the base is rebuilt from them, and the session has
// no ledger record to extend later.
func (s *Session) fpEvaluator(m *coverage.Map, cfg Config, ccFPs []coverage.Footprint, bg []bgNode) *Evaluator {
	s.forgetLedger()
	e := &s.ev
	base := e.ds.Begin(m)
	for _, fp := range ccFPs {
		base.Add(fp)
	}
	cfg.Metrics.BaseFootprints.Add(int64(len(ccFPs)))
	e.init(cfg, bg)
	return e
}

// ledgerBase readies the evaluator's base to hold the useful footprints of
// the ledger's photos, in ledger order, and nothing else. A base is the
// union of what was added to it, accumulated add by add, so a base that
// holds a prefix of the ledger and receives the rest in order is the state
// a rebuild from scratch would make, bit for bit. The command center's
// ledger only grows by appends, so at contact rate that is the usual case:
// when the recorded ledger is a prefix of this one, read from the same
// cache with no invalidation since, only the footprints of the new photos
// are compiled and added. Anything else starts a new base. Either way the
// record then names the whole ledger; a later Add of anything else must
// clear it (forgetLedger).
func (s *Session) ledgerBase(fpc *coverage.FootprintCache, ledger model.PhotoList, added *obs.Counter) {
	ds := &s.ev.ds
	epoch := fpc.Epoch() // before the footprints: see FootprintCache.Epoch
	var base *coverage.State
	if s.ledgerFPC == fpc && s.ledgerEpoch == epoch && hasPrefix(ledger, s.ledgerIDs) {
		base = ds.Resume()
		ledger = ledger[len(s.ledgerIDs):]
	} else {
		base = ds.Begin(fpc.Map())
		s.ledgerIDs = s.ledgerIDs[:0]
	}
	fps := s.footprints(fpc, ledger)
	for _, fp := range fps {
		base.Add(fp)
	}
	added.Add(int64(len(fps)))
	for _, p := range ledger {
		s.ledgerIDs = append(s.ledgerIDs, p.ID)
	}
	s.ledgerFPC, s.ledgerEpoch = fpc, epoch
}

// forgetLedger clears the ledger record: the base is about to hold more
// than a ledger, or to be given up.
func (s *Session) forgetLedger() {
	s.ledgerFPC = nil
	s.ledgerIDs = s.ledgerIDs[:0]
}

// hasPrefix reports whether the photos' IDs start with ids.
func hasPrefix(photos model.PhotoList, ids []model.PhotoID) bool {
	if len(ids) > len(photos) {
		return false
	}
	for i, id := range ids {
		if photos[i].ID != id {
			return false
		}
	}
	return true
}

// footprints compiles the useful footprints of a collection into the
// session's footprint arena and returns the collection's span. Earlier
// spans stay valid when the arena grows: they keep aliasing the old backing
// array, whose entries never change.
func (s *Session) footprints(fpc *coverage.FootprintCache, photos model.PhotoList) []coverage.Footprint {
	start := len(s.fps)
	s.fps = fpc.AppendUseful(s.fps, photos)
	return s.fps[start:len(s.fps):len(s.fps)]
}

// draws returns the first n numbers of seed's Float64 stream. The sampler
// is reseeded only when the seed changes; the numbers it already drew are
// memoised, so a later phase with the same seed reads them again and draws
// only those past the memo.
func (s *Session) draws(seed int64, n int) []float64 {
	switch {
	case s.rng == nil:
		s.rng = rand.New(rand.NewSource(seed))
	case seed != s.drawSeed:
		s.rng.Seed(seed) // the same stream as a fresh source: no 5 KB allocation
		s.drawn = s.drawn[:0]
	}
	s.drawSeed = seed
	for len(s.drawn) < n {
		s.drawn = append(s.drawn, s.rng.Float64())
	}
	return s.drawn[:n]
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
	c.gain = coverage.Coverage{}
	c.round = 0
	return c
}

func (a *candArena) reset() { a.n = 0 }
