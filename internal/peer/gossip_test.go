package peer

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"photodtn/internal/guard"
	"photodtn/internal/model"
	"photodtn/internal/obs"
)

// gossipPeers is the number of participants in the fixed gossip schedule;
// the command center comes on top.
const gossipPeers = 6

// runGossipSchedule drives a fixed, seeded, strictly sequential contact
// schedule through guarded peers over net.Pipe: captures, peer-to-peer
// reallocations, uploads to the command center, and gaps long enough for
// cached snapshots to go stale. extra, when set, adds options to node i;
// around, when set, wraps every contact, which run performs. It returns
// every node's final StateDigest, command center first, and then a trail:
// a hash of both sides' digests after every contact, so a difference that
// a later contact would heal still shows.
func runGossipSchedule(t *testing.T, extra func(i int) []Option, around func(a, b *Peer, run func())) []uint64 {
	t.Helper()
	m := poiMapN(4)
	clk := &tickClock{now: 1000}
	nodes := make([]*Peer, gossipPeers+1)
	for i := range nodes {
		opts := []Option{WithSeed(int64(i) + 500), WithClock(clk.read), WithGuard(guard.Config{})}
		if extra != nil {
			opts = append(opts, extra(i)...)
		}
		nodes[i] = New(model.NodeID(i), m, 16*mb, opts...)
	}
	if around == nil {
		around = func(_, _ *Peer, run func()) { run() }
	}
	trail := fnv.New64a()
	rng := rand.New(rand.NewSource(17))
	seq := make([]uint32, len(nodes))
	for step := 0; step < 120; step++ {
		var gap float64
		switch r := rng.Intn(10); {
		case r == 0:
			gap = 5000 + rng.Float64()*15000
		case r < 4:
			gap = 1 + rng.Float64()*29
		default:
			gap = 30 + rng.Float64()*270
		}
		clk.set(clk.read() + gap)
		if rng.Intn(2) == 0 {
			owner := 1 + rng.Intn(gossipPeers)
			photo := viewOfPoI(model.NodeID(owner), seq[owner], rng.Intn(4), rng.Float64()*360)
			seq[owner]++
			// A full store rejects the capture; the schedule is seeded, so
			// the rejection is too.
			_ = nodes[owner].AddPhoto(photo)
		}
		a := 1 + rng.Intn(gossipPeers)
		b := rng.Intn(gossipPeers + 1)
		if b == a {
			b = 0
		}
		around(nodes[a], nodes[b], func() {
			if errA, errB := tryContact(nodes[a], nodes[b]); errA != nil || errB != nil {
				t.Fatalf("step %d contact %d-%d: %v / %v", step, a, b, errA, errB)
			}
		})
		trail.Write(binary.LittleEndian.AppendUint64(nil, nodes[a].StateDigest()))
		trail.Write(binary.LittleEndian.AppendUint64(nil, nodes[b].StateDigest()))
	}
	out := make([]uint64, 0, len(nodes)+1)
	for _, n := range nodes {
		out = append(out, n.StateDigest())
	}
	return append(out, trail.Sum64())
}

// TestGossipScheduleDigestsGolden pins every node's StateDigest after the
// fixed sequential schedule, and the trail of digests along it. The golden digests were recorded before the
// metadata summary round existed, when every contact shipped the sender's
// whole valid cache: withholding the entries a summary shows the receiver
// already holds must leave every node's state bit-identical.
func TestGossipScheduleDigestsGolden(t *testing.T) {
	want := []uint64{
		0xd8ae534987106ba1, 0xf641288bc849ce59, 0xd782961fe053ed9c, 0x491e1ca46368db32,
		0x38cf420e56845657, 0x0a5e889ada76359b, 0xa014e791989a33d8, 0x5dbb336c5088a6b5,
	}
	got := runGossipSchedule(t, nil, nil)
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			t.Fatalf("digest %d is %#x; all digests %#v, want %#v", i, got[i], got, want)
		}
	}
}

// ledgerOffer returns the ack-ledger photos p offers remote on a contact
// between them: the command center's own collection, or p's cached
// command-center entry unless remote is the command center; and how many of
// those photos remote's ledger lacks.
func ledgerOffer(p, remote *Peer) (offered, lacking int) {
	var photos model.PhotoList
	switch {
	case p.ID().IsCommandCenter():
		photos = p.store.List()
	case !remote.ID().IsCommandCenter():
		e, _ := p.cache.Get(model.CommandCenter)
		photos = e.Photos
	}
	held := make(map[model.PhotoID]bool)
	for _, id := range remote.cache.Delivered() {
		held[id] = true
	}
	for _, photo := range photos {
		if !held[photo.ID] {
			lacking++
		}
	}
	return len(photos), lacking
}

// TestGossipCountersAccountForEveryEntry pins the metadata counters on
// every contact of the schedule, for each side: the entries it sent plus
// those it withheld are the valid entries it held going in plus its self
// entry, and the ledger photos it offered are those the remote's ledger
// lacked, which it sent, plus those it withheld. Over the schedule the
// summary withholds some entries and some ledger photos but not all of
// them, and stale entries are dropped and counted.
func TestGossipCountersAccountForEveryEntry(t *testing.T) {
	observers := make(map[model.NodeID]*obs.Observer)
	extra := func(i int) []Option {
		o := obs.New(0, nil)
		observers[model.NodeID(i)] = o
		return []Option{WithObserver(o)}
	}
	count := func(p *Peer, name string) int64 { return observers[p.ID()].Counter(name).Value() }
	var withheld, invalidated, acksSent, acksWithheld int64
	runGossipSchedule(t, extra, func(a, b *Peer, run func()) {
		sides := []*Peer{a, b}
		offered := make([]int64, 2)
		before := make([]int64, 2)
		ledger, lacking, acksBefore := make([]int, 2), make([]int, 2), make([]int64, 2)
		for i, p := range sides {
			offered[i] = int64(len(p.cache.ValidEntries(p.clock()))) + 1
			before[i] = count(p, "metadata.entries_sent") + count(p, "metadata.entries_withheld")
			ledger[i], lacking[i] = ledgerOffer(p, sides[1-i])
			acksBefore[i] = count(p, "metadata.ack_photos_withheld")
			withheld -= count(p, "metadata.entries_withheld")
			invalidated -= count(p, "metadata.invalidations")
		}
		run()
		for i, p := range sides {
			after := count(p, "metadata.entries_sent") + count(p, "metadata.entries_withheld")
			if after-before[i] != offered[i] {
				t.Fatalf("node %v: sent+withheld grew by %d, want %d (valid entries + self)", p.ID(), after-before[i], offered[i])
			}
			if w := count(p, "metadata.ack_photos_withheld") - acksBefore[i]; int(w)+lacking[i] != ledger[i] {
				t.Fatalf("node %v: offered %d ledger photos, the remote lacked %d, but %d were withheld", p.ID(), ledger[i], lacking[i], w)
			}
			withheld += count(p, "metadata.entries_withheld")
			invalidated += count(p, "metadata.invalidations")
			acksSent += int64(lacking[i])
			acksWithheld += count(p, "metadata.ack_photos_withheld") - acksBefore[i]
		}
	})
	if withheld == 0 || invalidated == 0 || acksSent == 0 || acksWithheld == 0 {
		t.Fatalf("schedule withheld %d entries, invalidated %d, sent %d ledger photos and withheld %d; want all above zero",
			withheld, invalidated, acksSent, acksWithheld)
	}
}

// TestInvalidationsCountedLiveNotOnReplay: the stale entries a contact
// drops count once, when the session drops them; recovering the same
// contacts from the journal counts none.
func TestInvalidationsCountedLiveNotOnReplay(t *testing.T) {
	m := poiMap()
	dir := t.TempDir()
	clk := &tickClock{now: 1000}
	live := obs.New(0, nil)
	v, err := Open(dir, 1, m, 64*mb, WithSeed(1), WithClock(clk.read), WithObserver(live))
	if err != nil {
		t.Fatal(err)
	}
	relay := New(2, m, 64*mb, WithSeed(2), WithClock(clk.read))
	other := New(3, m, 64*mb, WithSeed(3), WithClock(clk.read))
	if err := other.AddPhoto(viewFrom(3, 0, 90)); err != nil {
		t.Fatal(err)
	}
	contact(t, other, relay)
	clk.set(1100) // a second contact gives node 3 a learned rate
	contact(t, other, relay)
	contact(t, relay, v) // v learns node 3's snapshot from the relay
	clk.set(1e6)         // long enough for every learned snapshot to go stale
	contact(t, relay, v)
	dropped := live.Counter("metadata.invalidations").Value()
	if dropped == 0 {
		t.Fatal("no stale entry counted on the live path")
	}
	digest := v.StateDigest()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	replay := obs.New(0, nil)
	v2, err := Open(dir, 1, m, 64*mb, WithSeed(1), WithClock(clk.read), WithObserver(replay))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = v2.Close() }()
	if got := v2.StateDigest(); got != digest {
		t.Fatalf("recovered digest %x, want %x", got, digest)
	}
	if got := replay.Counter("metadata.invalidations").Value(); got != 0 {
		t.Fatalf("journal replay counted %d invalidations, want 0", got)
	}
}
