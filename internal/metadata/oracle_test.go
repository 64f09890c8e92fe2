package metadata

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"photodtn/internal/model"
)

// refCache is the reference the indexed Cache is checked against: the
// original copy-on-every-store cache, whose command-center merge rebuilds
// the union from scratch with a map.
type refCache struct {
	owner      model.NodeID
	pthld      float64
	entries    map[model.NodeID]Entry
	maxEntries int
	maxBytes   int64
	bytes      int64
}

func newRefCache(owner model.NodeID, pthld float64) *refCache {
	return &refCache{owner: owner, pthld: pthld, entries: make(map[model.NodeID]Entry)}
}

func (c *refCache) setEntry(e Entry) {
	if old, ok := c.entries[e.Node]; ok {
		c.bytes -= entrySize(old)
	}
	c.bytes += entrySize(e)
	c.entries[e.Node] = e
}

func (c *refCache) delEntry(node model.NodeID) {
	if old, ok := c.entries[node]; ok {
		c.bytes -= entrySize(old)
		delete(c.entries, node)
	}
}

func (c *refCache) evict() {
	for (c.maxEntries > 0 && len(c.entries) > c.maxEntries) || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		victim, found, oldest := model.NodeID(0), false, 0.0
		for node, e := range c.entries {
			if node.IsCommandCenter() {
				continue
			}
			if !found || e.Timestamp < oldest || (e.Timestamp == oldest && node > victim) {
				victim, oldest, found = node, e.Timestamp, true
			}
		}
		if !found {
			return
		}
		c.delEntry(victim)
	}
}

func (c *refCache) SetLimits(maxEntries int, maxBytes int64) {
	c.maxEntries, c.maxBytes = maxEntries, maxBytes
	c.evict()
}

func (c *refCache) Put(e Entry) {
	if e.Node == c.owner {
		return
	}
	old, ok := c.entries[e.Node]
	switch {
	case !ok:
		c.setEntry(refCloneEntry(e))
	case e.Node.IsCommandCenter():
		c.setEntry(refMergeCC(old, e))
	case e.Timestamp > old.Timestamp:
		c.setEntry(refCloneEntry(e))
	default:
		return
	}
	c.evict()
}

func refCloneEntry(e Entry) Entry {
	e.Photos = e.Photos.Clone()
	return e
}

// refMergeCC unions two command-center snapshots from scratch.
func refMergeCC(a, b Entry) Entry {
	out := Entry{
		Node:      model.CommandCenter,
		Timestamp: math.Max(a.Timestamp, b.Timestamp),
	}
	seen := make(map[model.PhotoID]bool, len(a.Photos)+len(b.Photos))
	for _, l := range []model.PhotoList{a.Photos, b.Photos} {
		for _, p := range l {
			if !seen[p.ID] {
				seen[p.ID] = true
				out.Photos = append(out.Photos, p)
			}
		}
	}
	return out
}

func (c *refCache) Clone() *refCache {
	out := &refCache{
		owner: c.owner, pthld: c.pthld,
		maxEntries: c.maxEntries, maxBytes: c.maxBytes, bytes: c.bytes,
		entries: make(map[model.NodeID]Entry, len(c.entries)),
	}
	for node, e := range c.entries {
		out.entries[node] = refCloneEntry(e)
	}
	return out
}

func (c *refCache) MergeFrom(other *refCache) {
	for _, e := range other.entries {
		c.Put(e)
	}
}

func (c *refCache) DropInvalid(now float64) int {
	dropped := 0
	for node, e := range c.entries {
		if !node.IsCommandCenter() && e.StaleProb(now) > c.pthld {
			c.delEntry(node)
			dropped++
		}
	}
	return dropped
}

func (c *refCache) Entries() []Entry {
	out := make([]Entry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// gossipGen draws random cache operations over a small photo universe, so
// command-center lists come out duplicated, overlapping and disjoint.
type gossipGen struct {
	rng   *rand.Rand
	nodes int
	now   float64
}

// photos returns a random list of up to seven photos drawn from a window
// of the universe; about a fifth of the draws repeat an earlier photo of
// the same list. Photo sizes vary, so one ID can carry conflicting values.
func (g *gossipGen) photos(universe int) model.PhotoList {
	n := g.rng.Intn(8)
	out := make(model.PhotoList, 0, n)
	base := uint32(g.rng.Intn(universe))
	for i := 0; i < n; i++ {
		if len(out) > 0 && g.rng.Intn(5) == 0 {
			out = append(out, out[g.rng.Intn(len(out))])
			continue
		}
		seq := base + uint32(g.rng.Intn(6))
		p := photoOf(model.NodeID(1+seq%3), seq)
		p.Size = int64(1 + g.rng.Intn(3))
		out = append(out, p)
	}
	return out
}

func (g *gossipGen) entry() Entry {
	node := model.NodeID(g.rng.Intn(g.nodes + 1)) // 0 is the command center
	e := Entry{
		Node:      node,
		Lambda:    g.rng.Float64() * 0.02,
		P:         g.rng.Float64(),
		Timestamp: g.now - g.rng.Float64()*200,
	}
	if node.IsCommandCenter() {
		e.Photos = g.photos(12)
	} else {
		e.Photos = g.photos(40)
	}
	return e
}

func entriesEqual(got, want []Entry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Node != w.Node || g.Lambda != w.Lambda || g.P != w.P || g.Timestamp != w.Timestamp {
			return fmt.Errorf("entry %d = {%v λ=%v p=%v ts=%v}, want {%v λ=%v p=%v ts=%v}",
				i, g.Node, g.Lambda, g.P, g.Timestamp, w.Node, w.Lambda, w.P, w.Timestamp)
		}
		if len(g.Photos) != len(w.Photos) {
			return fmt.Errorf("node %v holds %d photos, want %d", w.Node, len(g.Photos), len(w.Photos))
		}
		for k := range w.Photos {
			if g.Photos[k] != w.Photos[k] {
				return fmt.Errorf("node %v photo %d = %v, want %v", w.Node, k, g.Photos[k].ID, w.Photos[k].ID)
			}
		}
	}
	return nil
}

// TestCacheMatchesReference is the differential oracle for the indexed
// command-center merge and for list sharing: several caches and their
// reference twins take the same seeded random sequence of Put, MergeFrom,
// Remove(CommandCenter), Clone, DropInvalid and SetLimits, and after every
// step each pair must agree on Entries() (element order, λ, p, timestamp)
// and Bytes().
//
// Byte caps are applied and lifted within one step. MergeFrom walks a map,
// so under a binding byte cap the survivors depend on that walk's order in
// both implementations alike; an entry cap keeps the newest entries
// whatever the order, so entry caps persist across steps.
func TestCacheMatchesReference(t *testing.T) {
	const caches = 4
	for seed := int64(1); seed <= 40; seed++ {
		g := &gossipGen{rng: rand.New(rand.NewSource(seed)), nodes: 6}
		got := make([]*Cache, caches)
		want := make([]*refCache, caches)
		for i := range got {
			owner := model.NodeID(1 + i)
			got[i], want[i] = NewCache(owner, 0.8), newRefCache(owner, 0.8)
		}
		for step := 0; step < 300; step++ {
			g.now += g.rng.Float64() * 20
			i, j := g.rng.Intn(caches), g.rng.Intn(caches)
			var op string
			switch r := g.rng.Intn(100); {
			case r < 35:
				e := g.entry()
				op = fmt.Sprintf("Put(%v, %d photos)", e.Node, len(e.Photos))
				got[i].Put(e)
				want[i].Put(e)
			case r < 70:
				op = fmt.Sprintf("MergeFrom(%d)", j)
				got[i].MergeFrom(got[j])
				want[i].MergeFrom(want[j])
			case r < 76:
				op = "Remove(CC)"
				got[i].Remove(model.CommandCenter)
				want[i].delEntry(model.CommandCenter)
			case r < 84:
				op = "Clone"
				got[i], want[i] = got[i].Clone(), want[i].Clone()
			case r < 92:
				op = "DropInvalid"
				if a, b := got[i].DropInvalid(g.now), want[i].DropInvalid(g.now); a != b {
					t.Fatalf("seed %d step %d: DropInvalid dropped %d, want %d", seed, step, a, b)
				}
			case r < 96:
				n := 0
				if g.rng.Intn(2) == 0 {
					n = 2 + g.rng.Intn(5)
				}
				op = fmt.Sprintf("SetLimits(%d, 0)", n)
				got[i].SetLimits(n, 0)
				want[i].SetLimits(n, 0)
			default:
				b := int64(entryOverhead) * int64(1+g.rng.Intn(6))
				op = fmt.Sprintf("SetLimits(%d, %d)", got[i].maxEntries, b)
				n := got[i].maxEntries
				got[i].SetLimits(n, b)
				want[i].SetLimits(n, b)
				got[i].SetLimits(n, 0)
				want[i].SetLimits(n, 0)
			}
			for k := range got {
				if err := entriesEqual(got[k].Entries(), want[k].Entries()); err != nil {
					t.Fatalf("seed %d step %d %s on cache %d: cache %d: %v", seed, step, op, i, k, err)
				}
				if got[k].Bytes() != want[k].bytes {
					t.Fatalf("seed %d step %d %s: cache %d accounts %d bytes, want %d",
						seed, step, op, k, got[k].Bytes(), want[k].bytes)
				}
			}
		}
	}
}

// TestHandedOutListsNeverChange proves that no holder writes into a shared
// list: every list a cache hands out through Get, Entries or ValidEntries
// is deep-copied when handed out, and after many further puts, merges,
// clones and drops across several caches each must still equal its copy.
// External Puts also scribble over the caller's slice afterwards, which
// must not reach any cache.
func TestHandedOutListsNeverChange(t *testing.T) {
	type handout struct {
		live, copy model.PhotoList
		where      string
	}
	const caches = 4
	for seed := int64(1); seed <= 20; seed++ {
		g := &gossipGen{rng: rand.New(rand.NewSource(seed)), nodes: 6}
		cs := make([]*Cache, caches)
		for i := range cs {
			cs[i] = NewCache(model.NodeID(1+i), 0.8)
		}
		var out []handout
		keep := func(where string, l model.PhotoList) {
			out = append(out, handout{live: l, copy: l.Clone(), where: where})
		}
		for step := 0; step < 300; step++ {
			g.now += g.rng.Float64() * 20
			i, j := g.rng.Intn(caches), g.rng.Intn(caches)
			c := cs[i]
			switch r := g.rng.Intn(100); {
			case r < 30:
				e := g.entry()
				c.Put(e)
				for k := range e.Photos {
					e.Photos[k].Size = -1 // the caller reuses its slice
				}
			case r < 65:
				c.MergeFrom(cs[j])
			case r < 70:
				c.Remove(model.CommandCenter)
			case r < 78:
				cs[i] = c.Clone()
			case r < 84:
				c.DropInvalid(g.now)
			case r < 88:
				e, _ := c.Get(model.CommandCenter)
				keep(fmt.Sprintf("step %d Get(CC)", step), e.Photos)
			case r < 94:
				for _, e := range c.Entries() {
					keep(fmt.Sprintf("step %d Entries[%v]", step, e.Node), e.Photos)
				}
			default:
				for _, e := range c.ValidEntries(g.now) {
					keep(fmt.Sprintf("step %d ValidEntries[%v]", step, e.Node), e.Photos)
				}
			}
		}
		for _, h := range out {
			if len(h.live) != len(h.copy) {
				t.Fatalf("seed %d: %s changed length", seed, h.where)
			}
			for k := range h.copy {
				if h.live[k] != h.copy[k] {
					t.Fatalf("seed %d: %s photo %d changed from %v to %v", seed, h.where, k, h.copy[k], h.live[k])
				}
			}
		}
		for i, c := range cs {
			for _, e := range c.Entries() {
				for _, p := range e.Photos {
					if p.Size < 0 {
						t.Fatalf("seed %d: cache %d entry %v holds a photo the caller scribbled over", seed, i, e.Node)
					}
				}
			}
		}
	}
}

// TestCommandCenterPutCopiesCallerList: a command-center Put whose list is
// exactly the union with the stored one must still copy it, not adopt the
// caller's slice; only lists gossiped from another cache are shared.
func TestCommandCenterPutCopiesCallerList(t *testing.T) {
	c := NewCache(1, 0.8)
	c.Put(entryOf(model.CommandCenter, 10, photoOf(2, 0)))
	l := model.PhotoList{photoOf(2, 0), photoOf(3, 0)}
	c.Put(entryOf(model.CommandCenter, 20, l...))
	l[0].Size, l[1].Size = -1, -1
	e := mustGet(t, c, model.CommandCenter)
	if len(e.Photos) != 2 || e.Photos[0].Size < 0 || e.Photos[1].Size < 0 {
		t.Fatalf("command-center entry aliases the caller's slice: %+v", e.Photos)
	}
}

// TestMergeFromNoNewsAllocatesNothing pins the steady state of gossip: once
// two caches hold equal command-center views (in separate lists) and no
// entry newer than the other's, merging them either way allocates nothing.
func TestMergeFromNoNewsAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cc := model.PhotoList{photoOf(2, 0), photoOf(3, 0), photoOf(4, 1)}
	a, b := NewCache(1, 0.8), NewCache(2, 0.8)
	for _, c := range []*Cache{a, b} {
		c.Put(entryOf(model.CommandCenter, 10, cc...))
		c.Put(entryOf(5, 20, photoOf(5, 0)))
		c.Put(entryOf(6, 30, photoOf(6, 0), photoOf(6, 1)))
	}
	a.Put(entryOf(2, 40, photoOf(2, 7)))
	b.Put(entryOf(1, 40, photoOf(1, 7)))
	a.MergeFrom(b) // warm: build both command-center indexes
	b.MergeFrom(a)
	before, _ := a.Get(model.CommandCenter)
	n := testing.AllocsPerRun(100, func() {
		a.MergeFrom(b)
		b.MergeFrom(a)
	})
	if n != 0 {
		t.Fatalf("merging caches with nothing new allocates %.1f times, want 0", n)
	}
	after, _ := a.Get(model.CommandCenter)
	if &after.Photos[0] != &before.Photos[0] {
		t.Fatal("a merge that learned nothing replaced the command-center list")
	}
}

// TestDeliveredMatchesSortCompact is the property test for the maintained
// delivered list: over seeded random sequences of Put, MergeFrom,
// Remove(CommandCenter), Clone and DropInvalid across several caches, a
// cache's Delivered must equal the sorted, compacted IDs of its
// command-center entry (nil without one) whenever it is asked — each
// cache is asked after about half the steps, so lists are checked both
// freshly built and after runs of merges that kept them — and no list
// Delivered handed out may change afterwards, since clones share them.
func TestDeliveredMatchesSortCompact(t *testing.T) {
	type handout struct {
		live, copy []model.PhotoID
		where      string
	}
	const caches = 4
	for seed := int64(1); seed <= 40; seed++ {
		g := &gossipGen{rng: rand.New(rand.NewSource(seed)), nodes: 6}
		cs := make([]*Cache, caches)
		for i := range cs {
			cs[i] = NewCache(model.NodeID(1+i), 0.8)
		}
		var out []handout
		for step := 0; step < 300; step++ {
			g.now += g.rng.Float64() * 20
			i, j := g.rng.Intn(caches), g.rng.Intn(caches)
			var op string
			switch r := g.rng.Intn(100); {
			case r < 40:
				e := g.entry()
				op = fmt.Sprintf("Put(%v, %d photos)", e.Node, len(e.Photos))
				cs[i].Put(e)
			case r < 75:
				op = fmt.Sprintf("MergeFrom(%d)", j)
				cs[i].MergeFrom(cs[j])
			case r < 82:
				op = "Remove(CC)"
				cs[i].Remove(model.CommandCenter)
			case r < 92:
				op = "Clone"
				cs[i] = cs[i].Clone()
			default:
				op = "DropInvalid"
				cs[i].DropInvalid(g.now)
			}
			for k, c := range cs {
				if g.rng.Intn(2) == 0 {
					continue
				}
				var want []model.PhotoID
				if e, ok := c.Get(model.CommandCenter); ok {
					want = make([]model.PhotoID, 0, len(e.Photos))
					for _, p := range e.Photos {
						want = append(want, p.ID)
					}
					slices.Sort(want)
					want = slices.Compact(want)
				}
				got := c.Delivered()
				if (got == nil) != (want == nil) || !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d %s on cache %d: cache %d Delivered = %v, want %v",
						seed, step, op, i, k, got, want)
				}
				out = append(out, handout{live: got, copy: slices.Clone(got),
					where: fmt.Sprintf("step %d cache %d", step, k)})
			}
		}
		for _, h := range out {
			if !slices.Equal(h.live, h.copy) {
				t.Fatalf("seed %d: Delivered list of %s changed to %v, was %v", seed, h.where, h.live, h.copy)
			}
		}
	}
}
