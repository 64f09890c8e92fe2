package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"photodtn"
	"photodtn/internal/experiments"
	"photodtn/internal/geo"
	"photodtn/internal/model"
	"photodtn/internal/sim"
	gen "photodtn/internal/workload"
)

// simWorkload is the Table I MIT-like run (97 nodes, 300 h, 0.6 GB) of
// OurScheme at the given generation rate, one sim.Run per unit.
func simWorkload(name string, photosPerHour float64) *workload {
	return &workload{
		name: name,
		newUnit: func(rc *runConfig, seed int64, idx int32, tc *traceCtx) (unit, error) {
			spanHours := 0.0
			if rc.small {
				spanHours = 20
			}
			cfg, scheme, err := tableI(photosPerHour, spanHours, seed)
			if err != nil {
				return nil, err
			}
			return &simUnit{cfg: cfg, scheme: scheme, idx: idx, tc: tc}, nil
		},
	}
}

// scenarioSeed fixes the deployment — the PoIs and the gateways — the way
// experiments.BaseTrace fixes the contact trace: every run covers the same
// area through the same gateways, and the run's seed draws the photo
// workload. Which nodes are gateways decides most of what reaches the
// command center, so drawing it per seed would swamp every other effect.
const scenarioSeed = 1

// tableI builds the Table I inputs at the given generation rate (spanHours
// 0 is the whole 300 h trace): the fixed scenario plus the seed's photos.
func tableI(photosPerHour, spanHours float64, seed int64) (sim.Config, sim.Scheme, error) {
	p := experiments.DefaultParams(experiments.MIT)
	p.PhotosPerHour = photosPerHour
	p.SpanHours = spanHours
	cfg, scheme, err := experiments.Build(p, experiments.SchemeOurs, scenarioSeed)
	if err != nil {
		return sim.Config{}, nil, err
	}
	wl := gen.Default(cfg.Trace.Nodes, cfg.Span)
	wl.PhotosPerHour = photosPerHour
	cfg.Photos = gen.GeneratePhotos(wl, rand.New(rand.NewSource(seed)))
	cfg.Seed = seed
	return cfg, scheme, nil
}

type simUnit struct {
	cfg    sim.Config
	scheme sim.Scheme
	idx    int32
	tc     *traceCtx
}

func (u *simUnit) close() error { return nil }

func (u *simUnit) run() (unitResult, error) {
	tr := u.tc.tracer()
	probe := &schemeProbe{Scheme: u.scheme, tr: tr, unit: u.idx}
	var opts []photodtn.Option
	if o := u.tc.observer(); o != nil {
		opts = append(opts, photodtn.WithObserver(o))
	}
	probe.runStart = probe.allocs.read()
	probe.parent = tr.begin(lSimRun, -1, u.idx, -1)
	t0 := time.Now()
	res, err := photodtn.RunSimulation(u.cfg, probe, opts...)
	exec := time.Since(t0)
	tr.end(probe.parent)
	alloc := probe.allocs.read() - probe.runStart
	if err != nil {
		return unitResult{}, fmt.Errorf("sim.Run: %w", err)
	}
	r := unitResult{
		exec:      exec,
		contacts:  int64(len(probe.latMs)),
		runs:      1,
		delivered: int64(res.Final.Delivered),
		latMs:     probe.latMs,
		alloc:     alloc,
		wireBytes: res.TransferredBytes,
		point:     res.Final.PointFrac,
		aspectDeg: geo.Degrees(res.Final.AspectRad),
		digest:    simDigest(res),
		checkErr:  checkSim(u.cfg, res),
	}
	if tr != nil {
		// Everything allocated after the first scheme call and outside the
		// contacts is the captures' (the engine's own per-event work is a
		// small Session per contact); what came before is the engine's
		// event list.
		r.tally.callAlloc = probe.alloc
		r.tally.callAlloc[lSimRun] = probe.engineAlloc
		r.tally.callAlloc[lOnPhoto] = alloc - probe.engineAlloc - probe.alloc[lOnContactPeer] - probe.alloc[lOnContactGateway]
	}
	if r.checkErr != nil {
		r.failed = 1
	}
	return r, nil
}

// schemeProbe wraps the scheme under test. It times every contact (the
// end-to-end contact latency) and, when traced, records a span around every
// call and the heap bytes allocated inside contacts and before the first
// call. Reading the heap counter costs about as much as a capture, so
// captures are not read one by one.
type schemeProbe struct {
	sim.Scheme
	tr          *tracer
	unit        int32
	parent      int32
	allocs      allocReader
	latMs       []float64
	runStart    uint64
	started     bool
	engineAlloc uint64            // allocated before the first scheme call
	alloc       [numLayers]uint64 // allocated inside each kind of contact
}

// start notes the heap at the first scheme call of a traced run.
func (p *schemeProbe) start() {
	if !p.started {
		p.started = true
		p.engineAlloc = p.allocs.read() - p.runStart
	}
}

func (p *schemeProbe) OnPhoto(node model.NodeID, ph model.Photo) {
	if p.tr == nil {
		p.Scheme.OnPhoto(node, ph)
		return
	}
	p.start()
	id := p.tr.begin(lOnPhoto, p.parent, p.unit, -1)
	p.Scheme.OnPhoto(node, ph)
	p.tr.end(id)
}

func (p *schemeProbe) OnContact(s *sim.Session) {
	l := lOnContactPeer
	if s.A.IsCommandCenter() || s.B.IsCommandCenter() {
		l = lOnContactGateway
	}
	var a0 uint64
	if p.tr != nil {
		p.start()
		a0 = p.allocs.read()
	}
	id := p.tr.begin(l, p.parent, p.unit, int32(len(p.latMs)))
	t0 := time.Now()
	p.Scheme.OnContact(s)
	p.latMs = append(p.latMs, float64(time.Since(t0))/float64(time.Millisecond))
	p.tr.end(id)
	if p.tr != nil {
		p.alloc[l] += p.allocs.read() - a0
	}
}

// simDigest hashes a run's outcome: the final coverage sample and the
// delivered photo IDs.
func simDigest(res *sim.Result) string {
	h := fnv.New64a()
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.Final.PointFrac))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.Final.AspectRad))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.Final.Delivered))
	for _, id := range sortedIDs(res.DeliveredPhotos) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	_, _ = h.Write(buf)
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkSim checks a run against its inputs: every delivered photo is
// unique and was generated for its owner, and the command center's final
// coverage recomputed from scratch equals the engine's incremental one.
func checkSim(cfg sim.Config, res *sim.Result) error {
	owner := make(map[model.PhotoID]model.NodeID, len(cfg.Photos))
	for _, ev := range cfg.Photos {
		owner[ev.Photo.ID] = ev.Node
	}
	if err := checkDelivered(res.DeliveredPhotos, func(id model.PhotoID) bool {
		n, ok := owner[id]
		return ok && n == id.Owner()
	}); err != nil {
		return err
	}
	if res.Final.Delivered != len(res.DeliveredPhotos) {
		return fmt.Errorf("final sample counts %d delivered, collection holds %d",
			res.Final.Delivered, len(res.DeliveredPhotos))
	}
	pt, as := cfg.Map.Normalized(cfg.Map.Of(res.DeliveredPhotos))
	if !approxEqual(pt, res.Final.PointFrac) || !approxEqual(as, res.Final.AspectRad) {
		return fmt.Errorf("final coverage (%g, %g), recomputed (%g, %g)",
			res.Final.PointFrac, res.Final.AspectRad, pt, as)
	}
	return nil
}

// checkDelivered checks that a command center's collection has no photo
// twice and that every photo passes captured.
func checkDelivered(photos model.PhotoList, captured func(model.PhotoID) bool) error {
	seen := make(map[model.PhotoID]bool, len(photos))
	for _, ph := range photos {
		if seen[ph.ID] {
			return fmt.Errorf("photo %v delivered twice", ph.ID)
		}
		seen[ph.ID] = true
		if ph.Owner != ph.ID.Owner() || !captured(ph.ID) {
			return fmt.Errorf("photo %v delivered but never captured by its owner", ph.ID)
		}
	}
	return nil
}

func approxEqual(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func sortedIDs(photos model.PhotoList) []model.PhotoID {
	ids := photos.IDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
