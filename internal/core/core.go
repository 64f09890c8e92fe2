// Package core implements the paper's resource-aware photo crowdsourcing
// framework as a simulation scheme: the distributed protocol a participant
// runs at every contact.
//
// At a peer contact the two nodes (1) exchange PROPHET beacons and update
// delivery predictabilities, (2) exchange and gossip photo metadata
// (§III-B), (3) jointly compute the greedy photo reallocation that
// maximises expected coverage (§III-C/D), and (4) realise it by
// transferring photos in selection order under the contact's bandwidth
// budget, discarding whatever the contact is too short to finish.
//
// At a gateway contact with the command center the node learns the command
// center's collection (the acknowledgement view), uploads its photos in
// marginal-gain order, and frees the storage of everything delivered.
package core

import (
	"slices"

	"photodtn/internal/metadata"
	"photodtn/internal/model"
	"photodtn/internal/obs"
	"photodtn/internal/prophet"
	"photodtn/internal/selection"
	"photodtn/internal/sim"

	"photodtn/internal/coverage"
)

// Config tunes the framework.
type Config struct {
	// Selection configures expected-coverage evaluation.
	Selection selection.Config
	// Prophet configures delivery predictability.
	Prophet prophet.Config
	// Pthld is the metadata validity threshold of eq. (1).
	Pthld float64
	// DisableMetadata turns off metadata caching and management entirely —
	// the NoMetadata baseline of §V-B. Contacts then optimise using only
	// the two live collections.
	DisableMetadata bool
	// MinQuality implements the §II-C quality discussion as a binary
	// threshold: assessed photos (Quality > 0) below it are rejected at
	// capture, before they ever enter the coverage model. Zero disables
	// the filter.
	MinQuality float64
}

// DefaultConfig returns the Table I configuration.
func DefaultConfig() Config {
	return Config{
		Selection: selection.DefaultConfig(),
		Prophet:   prophet.DefaultConfig(),
		Pthld:     metadata.DefaultPthld,
	}
}

// nodeState is the per-node protocol state.
type nodeState struct {
	cache *metadata.Cache
	rate  *metadata.RateEstimator
	table *prophet.Table
	// ranks holds the standalone coverage of each stored photo, index for
	// index with the storage's Photos, while rankGen equals the storage's
	// Gen. A new storage is empty at generation 0, as ranks is.
	ranks   []coverage.Coverage
	rankGen uint64
}

// Scheme is the framework as a sim.Scheme. Create it with New.
type Scheme struct {
	cfg   Config
	name  string
	w     *sim.World
	nodes []*nodeState
	solo  map[model.PhotoID]coverage.Coverage
	fpc   *coverage.FootprintCache
	// sel is the scheme's selection arena: pools, heaps, residuals, and
	// scenario buffers are recycled across every contact of the run.
	sel *selection.Session
	// up plans gateway uploads. The command center's collection only grows,
	// so a session kept for uploads alone extends its coverage of it from
	// one upload to the next instead of rebuilding it; sel's would be
	// rebuilt by every reallocation in between.
	up *selection.Session
	// want is realize's scratch set of selected photo IDs.
	want map[model.PhotoID]bool

	// Observability (all nil — no-ops — when the world has no observer).
	obsv           *obs.Observer
	cInvalidations *obs.Counter
	hTableAge      *obs.Histogram
}

var _ sim.Scheme = (*Scheme)(nil)

// New returns the full framework ("OurScheme").
func New(cfg Config) *Scheme {
	name := "OurScheme"
	if cfg.DisableMetadata {
		name = "NoMetadata"
	}
	return &Scheme{cfg: cfg, name: name}
}

// Name implements sim.Scheme.
func (s *Scheme) Name() string { return s.name }

// Unconstrained implements sim.Scheme.
func (s *Scheme) Unconstrained() bool { return false }

// Init implements sim.Scheme.
func (s *Scheme) Init(w *sim.World) {
	s.w = w
	s.solo = make(map[model.PhotoID]coverage.Coverage)
	s.fpc = coverage.NewFootprintCache(w.Map)
	s.sel = selection.NewSession()
	s.up = selection.NewSession()
	s.want = make(map[model.PhotoID]bool)
	o := w.Obs()
	s.obsv = o
	s.cfg.Selection.Metrics = selection.ObserverMetrics(o)
	s.cInvalidations = o.Counter("metadata.invalidations")
	s.hTableAge = o.Histogram("prophet.table_age_sec")
	s.fpc.SetMetrics(o.Counter("coverage.fp_cache_hits"), o.Counter("coverage.fp_cache_misses"))
	s.nodes = make([]*nodeState, w.NumNodes()+1)
	for i := range s.nodes {
		s.nodes[i] = &nodeState{
			cache: metadata.NewCache(model.NodeID(i), s.cfg.Pthld),
			rate:  metadata.NewRateEstimator(),
			table: prophet.NewTable(model.NodeID(i), s.cfg.Prophet),
		}
	}
}

// soloCoverage returns the (cached) standalone coverage of a photo; it is
// constant for a fixed PoI map.
func (s *Scheme) soloCoverage(p model.Photo) coverage.Coverage {
	if c, ok := s.solo[p.ID]; ok {
		return c
	}
	c := s.w.Map.SoloCoverage(p)
	s.solo[p.ID] = c
	return c
}

// OnPhoto implements sim.Scheme. A newly taken photo is stored if it fits.
// When the storage is full, the photos with the least standalone coverage
// are evicted to make room, unless the new photo is itself the least
// valuable before it fits: it is then rejected and the storage is left
// unchanged.
//
// Victims are chosen on the node's ranks, which are rebuilt from the solo
// cache only when the storage changed after the node's last capture into a
// full store (at a contact, or by a capture that fitted), so a run of
// captures into a full store scans one small array per capture.
func (s *Scheme) OnPhoto(node model.NodeID, p model.Photo) {
	if s.cfg.MinQuality > 0 && p.Quality > 0 && p.Quality < s.cfg.MinQuality {
		return // unqualified photo: filtered before the model sees it
	}
	st := s.w.Storage(node)
	if p.Size > st.Capacity() {
		return
	}
	if p.Size <= st.Free() {
		_ = st.Add(p) // fits; duplicate IDs cannot occur
		return
	}
	ns := s.nodes[node]
	photos := st.Photos()
	if ns.rankGen != st.Gen() {
		ns.ranks = slices.Grow(ns.ranks[:0], len(photos)+1) // +1: the capture
		for _, q := range photos {
			ns.ranks = append(ns.ranks, s.soloCoverage(q))
		}
		ns.rankGen = st.Gen()
	}
	// Choose every victim before evicting any, so a rejection changes
	// nothing.
	cov := s.soloCoverage(p)
	var buf [4]int
	victims := buf[:0]
	for need := p.Size - st.Free(); need > 0; {
		i := leastCovering(ns.ranks, photos, victims, cov, p.ID)
		if i < 0 {
			return // the new photo is the least valuable: reject it
		}
		victims = append(victims, i)
		need -= photos[i].Size
	}
	// Evict from the back, so the positions still to go stay valid.
	slices.Sort(victims)
	for k := len(victims) - 1; k >= 0; k-- {
		i := victims[k]
		st.Remove(photos[i].ID)
		ns.ranks = slices.Delete(ns.ranks, i, i+1)
	}
	_ = st.Add(p) // fits by construction
	ns.ranks = append(ns.ranks, cov)
	ns.rankGen = st.Gen()
}

// leastCovering scans ranks in storage order, starting from the incoming
// photo (cov, id) as the best, and moves the best to every stored photo
// whose coverage is Less or, within Cmp's epsilon, equal with a smaller ID.
// It returns the position it ends on, or -1 if the incoming photo stays the
// best. The epsilon makes the comparison intransitive, so the scan order is
// part of the rule. Positions in skip are already victims and are passed
// over.
func leastCovering(ranks []coverage.Coverage, photos model.PhotoList, skip []int, cov coverage.Coverage, id model.PhotoID) int {
	best := -1
	for i, c := range ranks {
		if c.Less(cov) || (c.Cmp(cov) == 0 && photos[i].ID < id) {
			if slices.Contains(skip, i) {
				continue
			}
			best, cov, id = i, c, photos[i].ID
		}
	}
	return best
}

// OnContact implements sim.Scheme.
func (s *Scheme) OnContact(sess *sim.Session) {
	switch {
	case sess.A.IsCommandCenter():
		s.ccContact(sess, sess.B)
	case sess.B.IsCommandCenter():
		s.ccContact(sess, sess.A)
	default:
		s.peerContact(sess)
	}
}

// ccContact handles a gateway node meeting the command center.
func (s *Scheme) ccContact(sess *sim.Session, node model.NodeID) {
	now := sess.Time
	ns := s.nodes[node]
	ns.rate.Observe(model.CommandCenter, now)
	prophet.Exchange(ns.table, s.nodes[model.CommandCenter].table, now)

	// Upload photos in marginal-gain order over what the command center
	// already has (live knowledge during the contact).
	st := s.w.Storage(node)
	plan := s.up.SelectForUpload(s.fpc, s.selCfg(), s.w.CCPhotos(), st.Photos())
	for _, p := range plan {
		if err := sess.Transfer(model.CommandCenter, p); err != nil {
			break // budget exhausted; unfinished transfer discarded
		}
		st.Remove(p.ID) // delivered: the copy here has no further value
	}

	if !s.cfg.DisableMetadata {
		// The command center's collection is the acknowledgement view. Put
		// copies whatever part of it the cache keeps.
		ns.cache.Put(metadata.Entry{
			Node:      model.CommandCenter,
			Photos:    s.w.CCPhotos(),
			Timestamp: now,
		})
	}
}

// peerContact handles a contact between two participants.
func (s *Scheme) peerContact(sess *sim.Session) {
	now := sess.Time
	a, b := sess.A, sess.B
	nsA, nsB := s.nodes[a], s.nodes[b]
	nsA.rate.Observe(b, now)
	nsB.rate.Observe(a, now)
	s.hTableAge.Observe(now - nsA.table.LastAged())
	s.hTableAge.Observe(now - nsB.table.LastAged())
	prophet.Exchange(nsA.table, nsB.table, now)
	pa := nsA.table.DeliveryProb(now)
	pb := nsB.table.DeliveryProb(now)

	// The storages stay unchanged until realize, so the selection reads
	// them in place; the cache keeps its own copy of each snapshot.
	stA, stB := s.w.Storage(a), s.w.Storage(b)
	photosA, photosB := stA.Photos(), stB.Photos()

	var view []metadata.Entry
	if !s.cfg.DisableMetadata {
		// Gossip caches both ways, then snapshot each other.
		nsA.cache.MergeFrom(nsB.cache)
		nsB.cache.MergeFrom(nsA.cache)
		nsA.cache.Put(metadata.Entry{
			Node: b, Photos: photosB, Lambda: nsB.rate.Rate(now), P: pb, Timestamp: now,
		})
		nsB.cache.Put(metadata.Entry{
			Node: a, Photos: photosA, Lambda: nsA.rate.Rate(now), P: pa, Timestamp: now,
		})
		da := nsA.cache.DropInvalid(now)
		db := nsB.cache.DropInvalid(now)
		s.cInvalidations.Add(int64(da + db))
		if s.obsv != nil {
			if da > 0 {
				s.obsv.Emit(obs.Event{Time: now, Kind: obs.EvMetadataStaled,
					A: int32(a), B: obs.NoNode, Photo: obs.NoPhoto, Value: float64(da)})
			}
			if db > 0 {
				s.obsv.Emit(obs.Event{Time: now, Kind: obs.EvMetadataStaled,
					A: int32(b), B: obs.NoNode, Photo: obs.NoPhoto, Value: float64(db)})
			}
		}

		// The joint optimisation plans over A's valid cache view. After the
		// merge it equals B's except for the entries each holds about the
		// other, and Reallocate skips those.
		view = nsA.cache.ValidEntries(now)
	}

	cfg := s.selCfg()
	res := s.sel.Reallocate(s.fpc, cfg, view,
		selection.Alloc{Node: a, P: pa, Capacity: stA.Capacity(), Photos: photosA},
		selection.Alloc{Node: b, P: pb, Capacity: stB.Capacity(), Photos: photosB},
	)

	// Realise the plan: the first selector's transfers take priority.
	if res.AFirst {
		s.realize(sess, a, res.ASel)
		s.realize(sess, b, res.BSel)
	} else {
		s.realize(sess, b, res.BSel)
		s.realize(sess, a, res.ASel)
	}
}

// realize morphs a node's collection into the selected target: unselected
// photos are dropped, missing ones are pulled from the peer in selection
// order until the budget runs out.
func (s *Scheme) realize(sess *sim.Session, node model.NodeID, sel model.PhotoList) {
	st := s.w.Storage(node)
	want := s.want
	clear(want)
	for _, p := range sel {
		want[p.ID] = true
	}
	st.Retain(func(p model.Photo) bool { return want[p.ID] })
	for _, p := range sel {
		if st.Has(p.ID) {
			continue
		}
		if s.obsv != nil {
			s.obsv.Emit(obs.Event{Time: sess.Time, Kind: obs.EvPhotoSelected,
				A: int32(node), B: obs.NoNode, Photo: int64(p.ID)})
		}
		if sess.Exhausted() {
			break
		}
		if err := sess.Transfer(node, p); err != nil {
			break // budget gone (ErrBudget) — the rest of the plan is moot
		}
	}
}

// selCfg derives a per-contact selection configuration with a deterministic
// Monte Carlo seed from the run's RNG stream.
func (s *Scheme) selCfg() selection.Config {
	cfg := s.cfg.Selection
	cfg.Seed = s.w.Rand.Int63()
	return cfg
}
