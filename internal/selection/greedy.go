package selection

import (
	"container/heap"
	"slices"

	"photodtn/internal/coverage"
	"photodtn/internal/metadata"
	"photodtn/internal/model"
)

// Item is a selection-pool entry: a candidate photo with its precompiled
// footprint.
type Item struct {
	Photo model.Photo
	FP    coverage.Footprint
}

// BuildPool compiles the union of photo collections into a deduplicated
// selection pool. Photos whose footprint is empty are excluded: they cover
// no PoI, so their expected coverage gain is identically zero and the
// greedy would never pick them (the paper's "irrelevant photos").
func BuildPool(fpc *coverage.FootprintCache, collections ...model.PhotoList) []Item {
	return appendPool(nil, make(map[model.PhotoID]bool), fpc, collections)
}

// appendPool is the shared pool-compilation loop behind BuildPool and
// Session.BuildPool; seen must be empty on entry.
func appendPool(pool []Item, seen map[model.PhotoID]bool, fpc *coverage.FootprintCache, collections []model.PhotoList) []Item {
	for _, col := range collections {
		for _, p := range col {
			if seen[p.ID] {
				continue
			}
			seen[p.ID] = true
			if fp := fpc.Of(p); !fp.IsEmpty() {
				pool = append(pool, Item{Photo: p, FP: fp})
			}
		}
	}
	return pool
}

// candHeap is a lazy-greedy (CELF) priority queue: items are ordered by
// their cached gain, which is an upper bound on the true current gain
// because expected coverage gains are diminishing in the selected set.
type candHeap struct {
	items []*cand
}

type cand struct {
	item Item
	// resid caches the candidate's footprint with the evaluator's base
	// subtracted out. The base is frozen once scenarios exist, so the
	// residual is compiled once (first gain query) and reused across every
	// CELF round.
	resid    coverage.Residual
	compiled bool
	gain     coverage.Coverage
	round    int // selection round the gain was computed in
}

func (h *candHeap) Len() int { return len(h.items) }

func (h *candHeap) Less(i, j int) bool {
	c := h.items[i].gain.Cmp(h.items[j].gain)
	if c != 0 {
		return c > 0 // max-heap on gain
	}
	return h.items[i].item.Photo.ID < h.items[j].item.Photo.ID
}

func (h *candHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *candHeap) Push(x any) { h.items = append(h.items, x.(*cand)) }

func (h *candHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	h.items = old[:n-1]
	return it
}

// GreedyFill solves problem (3) of §III-D: greedily select photos from the
// pool into a node of the given byte capacity, maximising expected coverage
// at every step, until the storage is full or no photo adds any benefit.
// The returned photos are in selection order — which is also the
// transmission priority order the transfer phase uses.
func GreedyFill(ev *Evaluator, pool []Item, capacity int64) model.PhotoList {
	s := ev.sess
	s.cands.reset()
	h := &s.heap
	h.items = h.items[:0]
	for _, it := range pool {
		if it.Photo.Size > capacity {
			continue
		}
		c := s.cands.take()
		c.item = it
		h.items = append(h.items, c)
	}
	// Initial scan: every candidate's gain against the fresh scenario set.
	ev.gainBatch(h.items)
	heap.Init(h)

	picked := s.picked[:0]
	remaining := capacity
	round := 0
	for h.Len() > 0 && remaining > 0 {
		top := h.items[0]
		if top.item.Photo.Size > remaining {
			heap.Pop(h) // can never fit again; capacity only shrinks
			continue
		}
		if top.round != round {
			// Stale cached gain (lazy greedy): recompute and reheapify.
			ev.gainCand(top)
			ev.metrics.GainEvals.Inc()
			top.round = round
			heap.Fix(h, 0)
			continue
		}
		if top.gain.IsZero() {
			// Cached gains are upper bounds, so the maximum being zero
			// means nothing can still help: "no more benefit".
			break
		}
		heap.Pop(h)
		ev.Commit(top.item.FP)
		picked = append(picked, top.item.Photo)
		remaining -= top.item.Photo.Size
		round++
	}
	ev.metrics.Rounds.Add(int64(round))
	s.picked = picked[:0]
	if len(picked) == 0 {
		return nil
	}
	return slices.Clone(picked)
}

// gainCand refreshes a candidate's gain, compiling its residual on first
// use.
func (e *Evaluator) gainCand(c *cand) {
	if !c.compiled {
		e.ds.CompileResidual(c.item.FP, &c.resid)
		c.compiled = true
	}
	c.gain = e.ds.GainResidual(&c.resid)
}

// gainBatch fills in the gain of every candidate. The gain-eval counter is
// bumped once per batch, keeping instrumentation off the per-candidate path.
func (e *Evaluator) gainBatch(cands []*cand) {
	e.metrics.GainEvals.Add(int64(len(cands)))
	for _, c := range cands {
		e.gainCand(c)
	}
}

// Alloc describes one side of a contact for reallocation: the node, its
// delivery probability, its storage capacity in bytes, and its current
// photo collection.
type Alloc struct {
	Node     model.NodeID
	P        float64
	Capacity int64
	Photos   model.PhotoList
}

// Result is the outcome of a reallocation: the target collection of each
// contacting node in selection order, and which node selected first.
type Result struct {
	// ASel and BSel are the photos selected for the respective Alloc
	// arguments, in selection (= transmission priority) order.
	ASel model.PhotoList
	BSel model.PhotoList
	// AFirst reports whether node A had the higher delivery probability and
	// therefore selected first.
	AFirst bool
}

// Reallocate runs the two-phase greedy of §III-D for a contact between
// nodes a and b:
//
//  1. The node with the higher delivery probability fills its storage from
//     the shared pool F_a ∪ F_b, maximising expected coverage against the
//     command center's collection and the background nodes (the valid
//     metadata cache entries).
//  2. The other node then fills its storage from the *same original pool*,
//     with the first node's selection added to the background at the first
//     node's delivery probability — so it avoids duplicating photos the
//     first node will likely deliver, yet may still double-select a photo
//     the first node is unlikely to deliver.
//
// view is the planning node's valid metadata cache entries in node order,
// as metadata.Cache.ValidEntries returns them; together with a and b it
// makes up Definition 2's node set M. The command center's entry is the
// ACK view, the entries for a and b are skipped (their live collections
// are in the allocs), and every other entry is a background node.
func Reallocate(fpc *coverage.FootprintCache, cfg Config, view []metadata.Entry, a, b Alloc) Result {
	s := AcquireSession()
	defer s.Release()
	return s.Reallocate(fpc, cfg, view, a, b)
}

// Reallocate is the session form of the package-level Reallocate: identical
// selections, but every working buffer — pools, heaps, residual arenas,
// scenario overlays — comes from the session's recycled storage.
func (s *Session) Reallocate(fpc *coverage.FootprintCache, cfg Config, view []metadata.Entry, a, b Alloc) Result {
	s.fps = s.fps[:0]
	var ledger model.PhotoList
	bg := s.bg[:0]
	for _, e := range view {
		switch {
		case e.Node.IsCommandCenter():
			ledger = e.Photos
		case e.Node == a.Node || e.Node == b.Node:
			// The pair's live collections are in the allocs.
		default:
			bg = append(bg, bgNode{p: e.P, fps: s.footprints(fpc, e.Photos)})
		}
	}
	s.bg = bg
	pool := s.BuildPool(fpc, a.Photos, b.Photos)

	first, second := a, b
	aFirst := true
	if b.P > a.P {
		first, second = b, a
		aFirst = false
	}

	ev := s.evaluator(fpc, cfg, ledger, bg)
	firstSel := GreedyFill(ev, pool, first.Capacity)

	// Phase 2's background is phase 1's plus the first node's selection,
	// so phase 2 extends phase 1's evaluator unless that node joins the
	// base.
	firstNode := bgNode{p: first.P, fps: s.footprints(fpc, firstSel)}
	if !ev.extend(cfg, firstNode) {
		bg2 := append(s.bg2[:0], bg...)
		bg2 = append(bg2, firstNode)
		s.bg2 = bg2
		ev = s.evaluator(fpc, cfg, ledger, bg2)
	}
	secondSel := GreedyFill(ev, pool, second.Capacity)

	if aFirst {
		return Result{ASel: firstSel, BSel: secondSel, AFirst: true}
	}
	return Result{ASel: secondSel, BSel: firstSel, AFirst: false}
}

// SelectForUpload runs the single-node variant used when a node meets the
// command center directly: choose which of the node's photos to upload,
// prioritising by marginal gain over what the command center already has.
// Returns photos in upload priority order.
func SelectForUpload(fpc *coverage.FootprintCache, cfg Config, ccPhotos, nodePhotos model.PhotoList) model.PhotoList {
	s := AcquireSession()
	defer s.Release()
	return s.SelectForUpload(fpc, cfg, ccPhotos, nodePhotos)
}

// SelectForUpload is the session form of the package-level SelectForUpload;
// identical selections from recycled storage. A session kept across a
// node's uploads keeps the command center's coverage too: while ccPhotos
// only grows by appends, each call adds just the new photos to it.
func (s *Session) SelectForUpload(fpc *coverage.FootprintCache, cfg Config, ccPhotos, nodePhotos model.PhotoList) model.PhotoList {
	s.fps = s.fps[:0]
	ev := s.evaluator(fpc, cfg, ccPhotos, nil)
	pool := s.BuildPool(fpc, nodePhotos)
	// Upload capacity is bounded by the contact budget, not storage; pass
	// the total pool size and let the transfer phase cut it off.
	return GreedyFill(ev, pool, model.PhotoList(nodePhotos).TotalSize())
}
