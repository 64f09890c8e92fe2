package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"testing"

	"photodtn/internal/core"
	"photodtn/internal/coverage"
	"photodtn/internal/geo"
	"photodtn/internal/model"
	"photodtn/internal/peer"
	"photodtn/internal/sim"
	"photodtn/internal/trace"
	"photodtn/internal/workload"
)

// The sim ↔ live differential runs one generated scenario through the
// simulator's core.Scheme and through live peers, and compares what every
// node and the command center hold after each contact.

// diffScenario names one generated scenario: participant count and seed.
type diffScenario struct {
	nodes int
	seed  int64
}

func (s diffScenario) String() string { return fmt.Sprintf("n%d/seed%d", s.nodes, s.seed) }

// diffKnown is an expected divergence: the first contact (0-based, in event
// order) after which some node's held set differs, and the DESIGN §7b row
// that explains it.
type diffKnown struct {
	contact int
	row     string
}

// diffAllowed lists every scenario of the family in which the simulator and
// the live peers part, with where and why. A listed scenario that parts
// anywhere else, or an unlisted one that parts at all, fails the test;
// unifying a §7b row should shrink this list.
//
// All five are 7-participant scenarios whose second selection phase sees
// more than ExactLimit live background nodes, so both sides sample Monte
// Carlo outcomes under differently drawn seeds. With ExactLimit raised to
// 12 on both sides, seeds 1, 2, 4 and 6 agree at every contact and seed 3
// first parts at contact 81 instead: there both sides plan
// with the same photo sets and background nodes, but node 7's advertised p
// is 0.2094 in the simulator and 0.2066 live (the PROPHET update row).
var diffAllowed = map[diffScenario]diffKnown{
	{nodes: 7, seed: 1}: {contact: 298, row: "selection seed"},
	{nodes: 7, seed: 2}: {contact: 294, row: "selection seed"},
	{nodes: 7, seed: 3}: {contact: 30, row: "selection seed"},
	{nodes: 7, seed: 4}: {contact: 171, row: "selection seed"},
	{nodes: 7, seed: 6}: {contact: 176, row: "selection seed"},
}

const (
	diffContacts        = 400
	diffGatewayInterval = 7200.25
	diffStoragePhotos   = 4
)

// diffConfig generates a scenario: random pair contacts 600–1800 s apart,
// node 1 reaching the command center every diffGatewayInterval seconds, an
// 800 m square with 30 PoIs, and the Table I photo workload at 6 photos/h.
// Bandwidth is unlimited and each node stores diffStoragePhotos photos.
func diffConfig(sc diffScenario) sim.Config {
	rng := rand.New(rand.NewSource(sc.seed))
	tr := &trace.Trace{Nodes: sc.nodes}
	t := 0.0
	for i := 0; i < diffContacts; i++ {
		t += 600 + 1200*rng.Float64()
		a := model.NodeID(1 + rng.Intn(sc.nodes))
		b := model.NodeID(1 + rng.Intn(sc.nodes-1))
		if b >= a {
			b++
		}
		tr.Contacts = append(tr.Contacts, trace.Contact{Start: t, End: t + 60, A: a, B: b})
	}
	span := tr.Duration()
	wl := workload.Default(sc.nodes, span)
	wl.Region = geo.Square(800)
	wl.NumPoIs = 30
	wl.PhotosPerHour = 6
	pois := workload.GeneratePoIs(wl, rng)
	return sim.Config{
		Trace:           tr,
		Map:             coverage.NewMap(pois, geo.Radians(30)),
		Photos:          workload.GeneratePhotos(wl, rng),
		StorageBytes:    diffStoragePhotos * wl.PhotoSize,
		Gateways:        []model.NodeID{1},
		GatewayInterval: diffGatewayInterval,
		Span:            span,
		Seed:            sc.seed,
	}
}

// heldSets is what every node holds, command center first, as sorted IDs.
type heldSets [][]model.PhotoID

func sortedIDs(ps model.PhotoList) []model.PhotoID {
	ids := ps.IDs()
	slices.Sort(ids)
	return ids
}

// diffProbe wraps the simulator's scheme. It records every node's held set
// after each contact, and admits a capture only if it fits, as a live
// peer's AddPhoto does (neutralising the §7b capture row).
type diffProbe struct {
	*core.Scheme
	w     *sim.World
	after []heldSets
}

func (p *diffProbe) Init(w *sim.World) {
	p.w = w
	p.Scheme.Init(w)
}

func (p *diffProbe) OnPhoto(node model.NodeID, ph model.Photo) {
	if ph.Size <= p.w.Storage(node).Free() {
		p.Scheme.OnPhoto(node, ph)
	}
}

func (p *diffProbe) OnContact(s *sim.Session) {
	p.Scheme.OnContact(s)
	held := heldSets{sortedIDs(p.w.CCPhotos())}
	for n := 1; n <= p.w.NumNodes(); n++ {
		held = append(held, sortedIDs(p.w.Storage(model.NodeID(n)).Photos()))
	}
	p.after = append(p.after, held)
}

// diffEvent is one step of the live replay: a capture or a contact.
type diffEvent struct {
	time    float64
	photo   *sim.PhotoEvent
	contact trace.Contact
}

// diffEvents merges the scenario's captures, trace contacts and gateway
// contacts in the simulator's event order: by time, a capture before a
// contact at the same instant, otherwise in the order listed.
func diffEvents(cfg sim.Config) []diffEvent {
	var evs []diffEvent
	for i := range cfg.Photos {
		if pe := &cfg.Photos[i]; pe.Time <= cfg.Span {
			evs = append(evs, diffEvent{time: pe.Time, photo: pe})
		}
	}
	for _, c := range append(slices.Clone(cfg.Trace.Contacts), sim.GatewayContacts(cfg, cfg.Span)...) {
		evs = append(evs, diffEvent{time: c.Start, contact: c})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].time != evs[j].time {
			return evs[i].time < evs[j].time
		}
		return evs[i].photo != nil && evs[j].photo == nil
	})
	return evs
}

// diffPipeContact runs one live contact over net.Pipe, a initiating.
func diffPipeContact(a, b *peer.Peer) error {
	ca, cb := net.Pipe()
	errB := make(chan error, 1)
	go func() {
		errB <- b.ContactConn(cb, false)
		_ = cb.Close()
	}()
	errA := a.ContactConn(ca, true)
	_ = ca.Close()
	return errors.Join(errA, <-errB)
}

// diffRun replays sc through the simulator and live peers. It returns the first contact
// after which the held sets differ (-1 if none) and a description of the
// difference.
func diffRun(t *testing.T, sc diffScenario) (int, string) {
	t.Helper()
	cfg := diffConfig(sc)
	probe := &diffProbe{Scheme: core.New(core.DefaultConfig())}
	if _, err := sim.Run(cfg, probe); err != nil {
		t.Fatal(err)
	}

	var now float64
	clock := func() float64 { return now }
	peers := make([]*peer.Peer, sc.nodes+1)
	for i := range peers {
		peers[i] = peer.New(model.NodeID(i), cfg.Map, cfg.StorageBytes,
			peer.WithClock(clock), peer.WithSeed(sc.seed*1000+int64(i)))
	}
	k := 0
	for _, ev := range diffEvents(cfg) {
		now = ev.time
		if ev.photo != nil {
			// A full store rejects the capture, as the probe does.
			_ = peers[ev.photo.Node].AddPhoto(ev.photo.Photo)
			continue
		}
		c := ev.contact
		if err := diffPipeContact(peers[c.A], peers[c.B]); err != nil {
			t.Fatalf("%v: contact %d (%v-%v at %v): %v", sc, k, c.A, c.B, c.Start, err)
		}
		if k >= len(probe.after) {
			t.Fatalf("%v: live ran contact %d, the simulator only %d", sc, k, len(probe.after))
		}
		want := probe.after[k]
		for n, p := range peers {
			if got := sortedIDs(p.Photos()); !slices.Equal(got, want[n]) {
				return k, fmt.Sprintf("after contact %d (%v-%v at %.2f) node %d holds %v live, %v simulated",
					k, c.A, c.B, c.Start, n, got, want[n])
			}
		}
		k++
	}
	if k != len(probe.after) {
		t.Fatalf("%v: live ran %d contacts, the simulator %d", sc, k, len(probe.after))
	}
	return -1, ""
}

// TestSimLiveDifferential runs the scenario family — 2, 3, 5 and 7
// participants, seeds 1–6 — through the simulator and through live peers
// on net.Pipe, and requires both to hold the same photos on every node and
// at the command center after every contact, except where diffAllowed
// says otherwise. From 7 participants on, the second selection phase can
// see more than ExactLimit live background nodes and sample Monte Carlo
// outcomes, whose seeds the simulator and the peers draw differently; larger
// populations would only add such scenarios, so they stay out.
func TestSimLiveDifferential(t *testing.T) {
	for _, nodes := range []int{2, 3, 5, 7} {
		for seed := int64(1); seed <= 6; seed++ {
			sc := diffScenario{nodes: nodes, seed: seed}
			t.Run(sc.String(), func(t *testing.T) {
				at, why := diffRun(t, sc)
				known, listed := diffAllowed[sc]
				switch {
				case !listed && at >= 0:
					t.Fatalf("simulator and live peers part: %s", why)
				case listed && at != known.contact:
					t.Fatalf("listed as parting at contact %d (%s), parted at %d: %s",
						known.contact, known.row, at, why)
				}
			})
		}
	}
}
