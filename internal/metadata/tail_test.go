package metadata

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"photodtn/internal/model"
)

// TestClonesGrowSharedLedgerConcurrently is the differential test for the
// shared ledger tail under concurrency. In each round one parent cache is
// cloned for several workers, and then the parent and every worker take
// seeded random steps at once, each on a goroutine of its own, so the
// parent's lineage is grown from all of them together. The steps are
// command-center deltas that overlap or are disjoint, often the very deltas
// the parent takes in the round (the contact pattern, where a clone merges
// first and the commit replays the same ops on the parent), other entries,
// gossip between a worker's own two caches, and clones of its own caches.
// Each cache has a reference twin (the map-per-merge union of
// TestCacheMatchesReference) that must agree after every step, and every
// list handed out on any goroutine must be unchanged at the end.
func TestClonesGrowSharedLedgerConcurrently(t *testing.T) {
	const workers, rounds, steps = 4, 8, 40
	type handout struct{ live, copy model.PhotoList }
	type twin struct {
		got  [2]*Cache
		want [2]*refCache
		rng  *rand.Rand
		out  []handout
	}
	for seed := int64(1); seed <= 5; seed++ {
		g := &gossipGen{rng: rand.New(rand.NewSource(seed)), nodes: 6}
		parent, ref := NewCache(1, 0.8), newRefCache(1, 0.8)
		// A ledger of 150 photos and more, grown once so that its lineage
		// has room for the first deltas.
		for _, e := range []Entry{
			{Node: model.CommandCenter, Photos: deltas(1, 150)[0].Photos, Timestamp: 1},
			{Node: model.CommandCenter, Photos: g.photos(400), Timestamp: 2},
		} {
			parent.Put(e)
			ref.Put(e)
		}
		twins := make([]*twin, workers+1)
		for i := range twins {
			twins[i] = &twin{rng: rand.New(rand.NewSource(seed*100 + int64(i)))}
		}
		var (
			mu   sync.Mutex
			errs []string
		)
		for round := 0; round < rounds && len(errs) == 0; round++ {
			shared := make([]Entry, steps)
			for i := range shared {
				g.now += 10
				shared[i] = Entry{Node: model.CommandCenter, Photos: g.photos(400), Timestamp: g.now}
			}
			for i, tw := range twins {
				for k := range tw.got {
					tw.got[k], tw.want[k] = parent.Clone(), ref.Clone()
				}
				if i == 0 {
					tw.got[0], tw.want[0] = parent, ref
				}
			}
			var wg sync.WaitGroup
			for i, tw := range twins {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tg := &gossipGen{rng: tw.rng, nodes: 6, now: g.now}
					next := 0
					for step := 0; step < steps; step++ {
						k := tw.rng.Intn(2)
						if i == 0 {
							k = 0 // the parent takes every shared delta
						}
						switch r := tw.rng.Intn(100); {
						case (i == 0 || r < 50) && next < len(shared):
							tw.got[k].Put(shared[next])
							tw.want[k].Put(shared[next])
							next++
						case r < 65:
							e := Entry{Node: model.CommandCenter, Photos: tg.photos(400 + 100*i), Timestamp: tg.now}
							tw.got[k].Put(e)
							tw.want[k].Put(e)
						case r < 75:
							e := tg.entry()
							tw.got[k].Put(e)
							tw.want[k].Put(e)
						case r < 87:
							tw.got[k].MergeFrom(tw.got[1-k])
							tw.want[k].MergeFrom(tw.want[1-k])
						case r < 93 && i != 0:
							tw.got[k], tw.want[k] = tw.got[1-k].Clone(), tw.want[1-k].Clone()
						default:
							if e, ok := tw.got[k].Get(model.CommandCenter); ok {
								tw.out = append(tw.out, handout{live: e.Photos, copy: e.Photos.Clone()})
							}
							tw.got[k].Delivered()
						}
						for c := range tw.got {
							if err := entriesEqual(tw.got[c].Entries(), tw.want[c].Entries()); err != nil {
								mu.Lock()
								errs = append(errs, fmt.Sprintf("seed %d round %d worker %d step %d cache %d: %v",
									seed, round, i, step, c, err))
								mu.Unlock()
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		}
		for i, tw := range twins {
			for j, h := range tw.out {
				for x := range h.copy {
					if h.live[x] != h.copy[x] {
						errs = append(errs, fmt.Sprintf("seed %d worker %d: handout %d photo %d changed from %v to %v",
							seed, i, j, x, h.copy[x].ID, h.live[x].ID))
						break
					}
				}
			}
		}
		for _, e := range errs {
			t.Error(e)
		}
		if t.Failed() {
			return
		}
	}
}

// bytesPerRun returns the bytes f allocates per call, averaged over runs
// calls after one warm-up call, on one processor.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// ledgerCache returns a cache whose command-center entry holds n photos,
// its index and sorted IDs built, as a peer's cache is after its first
// contacts, each of which cloned it.
func ledgerCache(n int) *Cache {
	c := NewCache(1, 0.8)
	photos := make(model.PhotoList, n)
	for i := range photos {
		photos[i] = photoOf(model.NodeID(2+i%50), uint32(i))
	}
	c.Put(entryOf(model.CommandCenter, 1, photos[:n/2]...))
	c.Put(entryOf(model.CommandCenter, 2, photos...))
	c.Clone()
	c.Put(entryOf(model.CommandCenter, 3, photoOf(1, 0)))
	c.Delivered()
	return c
}

// deltas returns runs command-center entries of k photos each that no
// ledgerCache holds.
func deltas(runs, k int) []Entry {
	out := make([]Entry, runs)
	for i := range out {
		photos := make(model.PhotoList, k)
		for j := range photos {
			photos[j] = photoOf(model.NodeID(60+j), uint32(i))
		}
		out[i] = entryOf(model.CommandCenter, float64(10+i), photos...)
	}
	return out
}

// TestLedgerWorkIsPerContact pins that the ledger's per-contact work
// grows with what a contact learns and not with the ledger. At ledger
// sizes 100 and 10,000, a learning merge of k photos, and a Clone
// followed by the clone's first learning merge, must allocate about the
// same bytes. A merge that copied the ledger, or a clone that indexed it
// again, allocates about a hundred times more at the larger size.
func TestLedgerWorkIsPerContact(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const k, runs = 4, 2000
	merge := func(n int) float64 {
		c, ds := ledgerCache(n), deltas(runs+1, k)
		i := 0
		return bytesPerRun(runs, func() {
			c.Put(ds[i])
			i++
		})
	}
	cloneMerge := func(n int) float64 {
		c, d := ledgerCache(n), deltas(1, k)[0]
		return bytesPerRun(runs, func() {
			c.Clone().Put(d)
		})
	}
	for _, tc := range []struct {
		name string
		f    func(int) float64
	}{{"learning merge", merge}, {"Clone and first merge", cloneMerge}} {
		small, big := tc.f(100), tc.f(10000)
		t.Logf("%s of %d photos: %.0f B at 100 photos, %.0f B at 10,000", tc.name, k, small, big)
		if big > 2*small+1024 {
			t.Errorf("%s allocates %.0f B at a ledger of 10,000 photos, %.0f B at 100", tc.name, big, small)
		}
	}
}

// TestUnclonedCacheCopiesExactly: a cache that is never cloned, as the
// simulator's, grows nothing in place. Each learning merge copies into an
// array of exactly the union's length and starts no lineage, so gossip
// never shares an array that a holder could later pin at a grown size.
func TestUnclonedCacheCopiesExactly(t *testing.T) {
	c := NewCache(1, 0.8)
	for i, d := range deltas(20, 3) {
		c.Put(d)
		e, _ := c.Get(model.CommandCenter)
		if c.ccTail != nil || cap(e.Photos[:0]) != len(e.Photos) {
			t.Fatalf("merge %d: a never-cloned cache holds %d photos in a lineage", i, len(e.Photos))
		}
	}
	c.Clone()
	c.Put(deltas(21, 3)[20])
	if e, _ := c.Get(model.CommandCenter); c.ccTail == nil || len(c.ccTail.arr) <= len(e.Photos) {
		t.Fatal("a cloned cache's merge left no room to grow in place")
	}
}
