package metadata

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"photodtn/internal/model"
)

// summaryCase draws one receiver cache and one sender's gossip for it:
// the sender's self entry first, then entries for distinct other nodes —
// the receiver itself and the command center included — stamped older
// than, equal to or newer than what the receiver holds.
func summaryCase(g *gossipGen, owner model.NodeID, maxEntries int, maxBytes int64) (*Cache, []Entry) {
	recv := NewCache(owner, 0.8)
	recv.SetLimits(maxEntries, maxBytes)
	for i := g.rng.Intn(12); i > 0; i-- {
		recv.Put(g.entry())
	}
	sender := owner
	for sender == owner || sender.IsCommandCenter() {
		sender = model.NodeID(g.rng.Intn(g.nodes + 1))
	}
	self := g.entry()
	self.Node, self.Timestamp = sender, g.now
	gossip := []Entry{self}
	for node := model.NodeID(0); int(node) <= g.nodes; node++ {
		if node == sender || g.rng.Intn(3) == 0 {
			continue
		}
		e := g.entry()
		e.Node = node
		if node.IsCommandCenter() {
			e.Photos = g.photos(12)
		}
		if held, ok := recv.Get(node); ok {
			switch g.rng.Intn(3) {
			case 0:
				e.Timestamp = held.Timestamp - g.rng.Float64()*50
			case 1:
				e.Timestamp = held.Timestamp
			default:
				e.Timestamp = held.Timestamp + g.rng.Float64()*50
			}
		}
		gossip = append(gossip, e)
	}
	return recv, gossip
}

// absorb puts list into a clone of recv in order, then drops what is
// stale — what a receiving peer does with one inbound Metadata message.
func absorb(recv *Cache, list []Entry, now float64) *Cache {
	c := recv.Clone()
	for _, e := range list {
		c.Put(e)
	}
	c.DropInvalid(now)
	return c
}

// TestNovelFilterIsExact is the oracle for the summary round: for
// generated receiver caches — command-center entries, stale entries and
// caps included — and generated gossip, putting only the entries Novel
// keeps and then dropping stale entries leaves exactly the Entries() the
// whole list leaves. The self entry always goes.
//
// Under an entry cap alone the two always agree: an evicted entry held the
// oldest stamp, so re-inserting an older copy of it evicts that copy
// again at once. Under a byte cap they may not: a put that pushes the
// cache over the cap can evict an entry whose older copy the whole list
// then re-inserts, keeping it or evicting others to make room, where the
// filter withheld that copy. The test checks that a difference only ever
// arises that way, and counts how often.
func TestNovelFilterIsExact(t *testing.T) {
	const owner = model.NodeID(3)
	differed := 0
	for seed := int64(1); seed <= 3000; seed++ {
		g := &gossipGen{rng: rand.New(rand.NewSource(seed)), nodes: 8, now: 1000}
		maxEntries, maxBytes := 0, int64(0)
		switch g.rng.Intn(4) {
		case 1:
			maxEntries = 2 + g.rng.Intn(6)
		case 2:
			maxBytes = entryOverhead + int64(g.rng.Intn(6*entryOverhead))
		case 3:
			maxEntries = 2 + g.rng.Intn(6)
			maxBytes = entryOverhead + int64(g.rng.Intn(6*entryOverhead))
		}
		recv, gossip := summaryCase(g, owner, maxEntries, maxBytes)
		sum := recv.Summary()
		kept := gossip[:1:1]
		for _, e := range gossip[1:] {
			if Novel(e, owner, sum) {
				kept = append(kept, e)
			}
		}
		now := g.now + g.rng.Float64()*100
		want := absorb(recv, gossip, now).Entries()
		got := absorb(recv, kept, now).Entries()
		err := entriesEqual(got, want)
		if err == nil {
			continue
		}
		if maxBytes == 0 || !withheldMetEviction(recv, gossip) {
			t.Fatalf("seed %d (caps %d entries, %d bytes): filtered gossip %v", seed, maxEntries, maxBytes, err)
		}
		differed++
	}
	t.Logf("%d byte-capped cases differed where a withheld entry met an eviction", differed)
}

// withheldMetEviction replays gossip into a clone of recv and reports
// whether an entry Novel withholds met a cache from which an earlier put
// had evicted its node: the one way withholding can change the result.
func withheldMetEviction(recv *Cache, gossip []Entry) bool {
	sum := recv.Summary()
	c := recv.Clone()
	for _, e := range gossip {
		if _, held := c.Get(e.Node); !held && e.Node != recv.Owner() && !Novel(e, recv.Owner(), sum) {
			return true
		}
		c.Put(e)
	}
	return false
}

// TestSummaryListsNonCommandCenterEntries pins the summary's shape: every
// cached entry but the command center's, stale ones included, in node
// order with its stored stamp.
func TestSummaryListsNonCommandCenterEntries(t *testing.T) {
	c := NewCache(1, 0.8)
	c.Put(Entry{Node: 5, Lambda: 1, Timestamp: 10, Photos: model.PhotoList{photoOf(5, 0)}})
	c.Put(Entry{Node: 2, Lambda: 0.001, Timestamp: 90})
	c.Put(Entry{Node: model.CommandCenter, Timestamp: 50, Photos: model.PhotoList{photoOf(2, 0)}})
	c.Put(Entry{Node: 1, Timestamp: 99}) // the owner: never cached
	got := c.Summary()
	want := []Stamp{{Node: 2, Timestamp: 90}, {Node: 5, Timestamp: 10}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Summary() = %v, want %v", got, want)
	}
	if e, _ := c.Get(5); c.IsValid(e, 100) {
		t.Fatal("node 5's entry should be stale at t=100 and still summarised")
	}
}

// TestNovelRules pins each rule of Novel on its own.
func TestNovelRules(t *testing.T) {
	sum := []Stamp{{Node: 2, Timestamp: 90}, {Node: 5, Timestamp: 10}}
	cases := []struct {
		e    Entry
		want bool
	}{
		{Entry{Node: 1, Timestamp: 500}, false},                // the receiver itself
		{Entry{Node: 2, Timestamp: 89}, false},                 // older than held
		{Entry{Node: 2, Timestamp: 90}, false},                 // as old as held
		{Entry{Node: 2, Timestamp: 91}, true},                  // newer than held
		{Entry{Node: 4, Timestamp: 1}, true},                   // not held
		{Entry{Node: 9, Timestamp: 1}, true},                   // past the last stamp
		{Entry{Node: model.CommandCenter, Timestamp: 0}, true}, // a union, never skipped
	}
	for _, tc := range cases {
		if got := Novel(tc.e, 1, sum); got != tc.want {
			t.Fatalf("Novel(%v at %v) = %v, want %v", tc.e.Node, tc.e.Timestamp, got, tc.want)
		}
	}
	if Novel(Entry{Node: model.CommandCenter}, model.CommandCenter, nil) {
		t.Fatal("the command center's own entry is novel to the command center")
	}
}

// TestLackingPutMatchesWholePut is the oracle for the ack-ledger delta: a
// command-center entry trimmed by Lacking against a receiver's Delivered
// must leave the same cache as the whole entry, both in the cache the
// summary described (a) and in any cache whose ledger has since grown by
// union (a′ ⊇ a), as a concurrent commit's would. The incoming list b has
// repeats and conflicting photos under one ID; a is absent, empty or
// generated, with or without its merge index already built. Order, stamp,
// λ and p, byte account and the command-center index must all agree.
func TestLackingPutMatchesWholePut(t *testing.T) {
	const owner = model.NodeID(3)
	trimmed := 0
	for seed := int64(1); seed <= 2000; seed++ {
		g := &gossipGen{rng: rand.New(rand.NewSource(seed)), nodes: 8, now: 1000}
		ccEntry := func() Entry {
			return Entry{Node: model.CommandCenter, Lambda: g.rng.Float64(), P: g.rng.Float64(),
				Timestamp: g.now - g.rng.Float64()*200, Photos: g.photos(12)}
		}
		// ops builds a; grow turns it into a′. Replaying them into fresh
		// caches gives twins whose merge indexes are built alike.
		var ops []Entry
		switch g.rng.Intn(3) {
		case 0: // no command-center entry
		case 1:
			ops = append(ops, Entry{Node: model.CommandCenter, Timestamp: g.now - 300})
		default:
			for i := 1 + g.rng.Intn(3); i > 0; i-- {
				ops = append(ops, ccEntry())
			}
		}
		for i := g.rng.Intn(3); i > 0; i-- {
			ops = append(ops, g.entry())
		}
		grow := ops[:len(ops):len(ops)]
		for i := g.rng.Intn(3); i > 0; i-- {
			grow = append(grow, ccEntry())
		}
		replay := func(ops []Entry) *Cache {
			c := NewCache(owner, 0.8)
			for _, e := range ops {
				c.Put(e)
			}
			return c
		}
		// b mixes fresh photos, repeats and photos a already holds.
		a := replay(ops)
		held, _ := a.Get(model.CommandCenter)
		b := ccEntry()
		for i := g.rng.Intn(5); i > 0; i-- {
			from := b.Photos
			if len(held.Photos) > 0 && g.rng.Intn(2) == 0 {
				from = held.Photos
			}
			if len(from) > 0 {
				at := g.rng.Intn(len(b.Photos) + 1)
				b.Photos = slices.Insert(b.Photos, at, from[g.rng.Intn(len(from))])
			}
		}
		delta := b
		delta.Photos = Lacking(b.Photos, a.Delivered())
		if len(delta.Photos) < len(b.Photos) {
			trimmed++
		}
		for _, target := range [][]Entry{ops, grow} {
			whole, part := replay(target), replay(target)
			whole.Put(b)
			part.Put(delta)
			if err := entriesEqual(part.Entries(), whole.Entries()); err != nil {
				t.Fatalf("seed %d (%d ops): trimmed put %v", seed, len(target), err)
			}
			if part.Bytes() != whole.Bytes() {
				t.Fatalf("seed %d: trimmed put accounts %d bytes, whole put %d", seed, part.Bytes(), whole.Bytes())
			}
			if !maps.Equal(part.ccIndex, whole.ccIndex) || (part.ccIndex == nil) != (whole.ccIndex == nil) {
				t.Fatalf("seed %d: trimmed put index %v, whole put %v", seed, part.ccIndex, whole.ccIndex)
			}
		}
	}
	if trimmed < 500 {
		t.Fatalf("only %d of 2000 cases trimmed a photo; the generator misses the delta", trimmed)
	}
}

// TestLackingKeepsListOrder pins Lacking on its own: the photos whose IDs
// the sorted delivered list lacks, repeats included, in list order, and the
// list itself when nothing is delivered.
func TestLackingKeepsListOrder(t *testing.T) {
	p := func(seq uint32) model.Photo { return photoOf(2, seq) }
	list := model.PhotoList{p(5), p(1), p(7), p(1), p(3), p(9)}
	delivered := []model.PhotoID{p(1).ID, p(4).ID, p(9).ID}
	want := model.PhotoList{p(5), p(7), p(3)}
	if got := Lacking(list, delivered); !slices.Equal(got, want) {
		t.Fatalf("Lacking = %v, want %v", got, want)
	}
	if got := Lacking(list, nil); &got[0] != &list[0] || len(got) != len(list) {
		t.Fatal("Lacking with nothing delivered copied the list")
	}
	if got := Lacking(list[1:2], delivered); len(got) != 0 {
		t.Fatalf("Lacking of a delivered photo = %v, want none", got)
	}
}
