package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"photodtn/internal/coverage"
	"photodtn/internal/faults"
	"photodtn/internal/model"
	"photodtn/internal/obs"
	"photodtn/internal/trace"
)

// Scheme is a routing/selection policy under evaluation. The engine calls
// Init once, then OnPhoto for every generated photo and OnContact for every
// contact (including gateway–command-center contacts), in time order.
type Scheme interface {
	// Name identifies the scheme in results.
	Name() string
	// Init binds the scheme to a world before any event fires.
	Init(w *World)
	// OnPhoto is invoked when a node takes a photo. The scheme decides
	// whether and how to store it.
	OnPhoto(node model.NodeID, p model.Photo)
	// OnContact is invoked at the start of a contact, with a session whose
	// budget reflects the contact duration and radio bandwidth.
	OnContact(s *Session)
	// Unconstrained reports whether the scheme ignores storage and
	// bandwidth limits (the BestPossible upper bound of §V-B).
	Unconstrained() bool
}

// PhotoEvent is one workload item: node takes photo p at time Time.
type PhotoEvent struct {
	Time  float64
	Node  model.NodeID
	Photo model.Photo
}

// Config describes one simulation run.
type Config struct {
	// Trace supplies the node-to-node contacts.
	Trace *trace.Trace
	// Map is the PoI coverage map.
	Map *coverage.Map
	// Photos is the generation workload, sorted by time.
	Photos []PhotoEvent
	// StorageBytes is each participant's storage capacity S_i.
	StorageBytes int64
	// Bandwidth is the radio bandwidth in bytes/second; 0 means contacts
	// are never budget-limited (the paper's default assumption).
	Bandwidth float64
	// Gateways lists the nodes able to reach the command center (the ~2%
	// with satellite links or data-mule duty).
	Gateways []model.NodeID
	// GatewayInterval is the period of gateway→command-center contacts in
	// seconds.
	GatewayInterval float64
	// GatewayDuration is the duration of each gateway contact in seconds
	// (relevant only when Bandwidth > 0).
	GatewayDuration float64
	// SampleInterval is the metric sampling period in seconds.
	SampleInterval float64
	// Span is the simulation end time; 0 means the trace duration.
	Span float64
	// Seed drives the run's RNG.
	Seed int64
	// Faults optionally injects the deterministic fault model of
	// internal/faults: node crash/rejoin churn with storage loss, contact
	// drops/truncation, mid-transfer session aborts, gateway outages, and
	// clock skew. Nil or a zero-valued config is a strict no-op — the run
	// is bit-identical to one without the fault layer.
	Faults *faults.Config
	// Obs optionally observes the run: counters, an event trace, or both.
	// Nil disables observability entirely; the run is then bit-identical to
	// (and as fast as) an unobserved one, because every instrumentation site
	// holds nil metric pointers that no-op. The facade's
	// photodtn.WithObserver sets it, as do the experiment harnesses.
	Obs *obs.Observer
}

// ErrBadSimConfig reports an invalid simulation configuration.
var ErrBadSimConfig = errors.New("sim: bad config")

func (c Config) validate() error {
	switch {
	case c.Trace == nil:
		return fmt.Errorf("%w: nil trace", ErrBadSimConfig)
	case c.Map == nil:
		return fmt.Errorf("%w: nil map", ErrBadSimConfig)
	case c.StorageBytes <= 0:
		return fmt.Errorf("%w: non-positive storage", ErrBadSimConfig)
	case c.Bandwidth < 0:
		return fmt.Errorf("%w: negative bandwidth", ErrBadSimConfig)
	case len(c.Gateways) > 0 && c.GatewayInterval <= 0:
		return fmt.Errorf("%w: gateways need a positive interval", ErrBadSimConfig)
	}
	for _, g := range c.Gateways {
		if g.IsCommandCenter() || int(g) > c.Trace.Nodes || g < 0 {
			return fmt.Errorf("%w: gateway %v out of range", ErrBadSimConfig, g)
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSimConfig, err)
		}
	}
	return nil
}

// Sample is one metrics observation.
type Sample struct {
	// Time is the observation time in seconds.
	Time float64
	// PointFrac is the normalized point coverage: covered PoI weight over
	// total weight.
	PointFrac float64
	// AspectRad is the mean covered aspect per PoI in radians.
	AspectRad float64
	// Delivered is the number of distinct photos at the command center.
	Delivered int
}

// Result summarises one run.
type Result struct {
	Scheme  string
	Samples []Sample
	Final   Sample
	// TransferredBytes and TransferredPhotos count every transfer over DTN
	// and gateway links (including duplicates).
	TransferredBytes  int64
	TransferredPhotos int64
	// DeliveredPhotos is the command center's final collection.
	DeliveredPhotos model.PhotoList

	// Fault metrics — all zero unless Config.Faults is enabled.

	// NodeCrashes counts node crash events.
	NodeCrashes int64
	// PhotosLostToCrash counts photos wiped from crashed nodes' storages.
	PhotosLostToCrash int64
	// AbortedTransfers counts sessions aborted mid-transfer by frame
	// loss/corruption (the in-flight photo was discarded, §III-D).
	AbortedTransfers int64
	// MeanRecoverySec is the mean time from a crash to the next
	// command-center delivery — how quickly coverage growth resumes after
	// losing a carrier. Zero when no crash was followed by a delivery.
	MeanRecoverySec float64
}

// event is the engine's internal tagged union, kept small because a run
// sorts one per photo, contact and sample: a photo event refers to its
// workload item by index, and a contact event carries the contact's fields
// (start = time) rather than a copy of anything larger.
type event struct {
	time float64
	// end is a contact's end time.
	end float64
	// a and b are a contact's endpoints; a is also the node of a photo or
	// crash event.
	a, b model.NodeID
	// photo indexes Config.Photos for photo events.
	photo int32
	kind  eventKind
}

// contact rebuilds a contact event's trace contact.
func (ev *event) contact() trace.Contact {
	return trace.Contact{Start: ev.time, End: ev.end, A: ev.a, B: ev.b}
}

type eventKind uint8

// Tie-break order at an instant: a crash wipes storage before anything
// else happens, a photo taken at a contact instant can ride that contact,
// and samples observe a settled state.
const (
	evCrash eventKind = iota
	evPhoto
	evContact
	evSample
)

// Run executes one simulation and returns its metrics. It is a
// RunContext with the background context.
func Run(cfg Config, scheme Scheme) (*Result, error) {
	return RunContext(context.Background(), cfg, scheme)
}

// cancelCheckEvery is how many events the engine processes between context
// checks: coarse enough to keep the hot loop branch-cheap, fine enough that
// cancellation lands within a fraction of a second even on dense traces.
const cancelCheckEvery = 256

// RunContext executes one simulation under a context. The engine polls ctx
// every cancelCheckEvery events and aborts with ctx's error (wrapped) when
// it is cancelled; schemes can additionally observe the same context via
// World.Context during long per-contact computations. A nil ctx behaves
// like context.Background.
func RunContext(ctx context.Context, cfg Config, scheme Scheme) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	span := cfg.Span
	if span <= 0 {
		span = cfg.Trace.Duration()
	}
	capacity := cfg.StorageBytes
	bandwidth := cfg.Bandwidth
	if scheme.Unconstrained() {
		capacity = math.MaxInt64 / 4
		bandwidth = 0
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	w := newWorld(cfg.Map, cfg.Trace.Nodes, capacity, rng)
	w.ctx = ctx
	w.setObserver(cfg.Obs)
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		fm, err := faults.NewModel(*cfg.Faults, cfg.Trace.Nodes, span, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSimConfig, err)
		}
		w.faults = fm
	}
	scheme.Init(w)

	events := buildEvents(cfg, span, w.faults)
	res := &Result{Scheme: scheme.Name()}
	o := cfg.Obs
	cContacts := o.Counter("sim.contacts")
	cPhotos := o.Counter("sim.photos_taken")
	for i, ev := range events {
		if i%cancelCheckEvery == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("sim: run interrupted: %w", ctx.Err())
		}
		w.now = ev.time
		switch ev.kind {
		case evCrash:
			w.crash(ev.a)
		case evPhoto:
			p := &cfg.Photos[ev.photo].Photo
			cPhotos.Inc()
			if o != nil {
				o.Emit(obs.Event{
					Time: ev.time, Kind: obs.EvPhotoTaken,
					A: int32(ev.a), B: obs.NoNode, Photo: int64(p.ID),
				})
			}
			scheme.OnPhoto(ev.a, *p)
		case evContact:
			c := ev.contact()
			s := &Session{
				w: w, A: c.A, B: c.B, Time: ev.time,
				unlimited: bandwidth == 0,
			}
			if !s.unlimited {
				s.budget = int64(c.Duration() * bandwidth)
			}
			if w.faults != nil {
				s.key = faults.ContactKey(c)
			}
			cContacts.Inc()
			if o != nil {
				o.Emit(obs.Event{
					Time: ev.time, Kind: obs.EvContactBegin,
					A: int32(s.A), B: int32(s.B), Photo: obs.NoPhoto,
				})
				before := w.transferredPhotos
				scheme.OnContact(s)
				o.Emit(obs.Event{
					Time: ev.time, Kind: obs.EvContactEnd,
					A: int32(s.A), B: int32(s.B), Photo: obs.NoPhoto,
					Value: float64(w.transferredPhotos - before),
				})
				break
			}
			scheme.OnContact(s)
		case evSample:
			res.Samples = append(res.Samples, sampleNow(w))
		}
	}
	w.now = span
	res.Final = sampleNow(w)
	res.TransferredBytes = w.transferredBytes
	res.TransferredPhotos = w.transferredPhotos
	res.DeliveredPhotos = w.CCPhotos().Clone()
	res.NodeCrashes = w.nodeCrashes
	res.PhotosLostToCrash = w.photosLostToCrash
	res.AbortedTransfers = w.abortedTransfers
	if w.recovered > 0 {
		res.MeanRecoverySec = w.recoverySum / float64(w.recovered)
	}
	return res, nil
}

func sampleNow(w *World) Sample {
	pt, as := w.Map.Normalized(w.CCCoverage())
	return Sample{Time: w.now, PointFrac: pt, AspectRad: as, Delivered: w.DeliveredCount()}
}

// GatewayContacts enumerates the periodic gateway→command-center contacts
// the configuration implies, up to the span.
func GatewayContacts(cfg Config, span float64) []trace.Contact {
	var out []trace.Contact
	for _, g := range cfg.Gateways {
		for t := cfg.GatewayInterval; t <= span; t += cfg.GatewayInterval {
			out = append(out, trace.Contact{
				Start: t, End: t + cfg.GatewayDuration, A: g, B: model.CommandCenter,
			})
		}
	}
	return out
}

// buildEvents merges the photo workload, the trace contacts, the gateway
// contacts, the sampling clock, and (when a fault model is active) crash
// events into one time-ordered stream. Ties are broken
// crash < photo < contact < sample so a crash wipes storage first, a photo
// taken at a contact instant can ride that contact, and samples observe a
// settled state.
//
// With a fault model, the stream is pre-filtered: photo events are shifted
// by the node's clock skew and suppressed while the node is down, contacts
// involving a down endpoint (or drawn as dropped/outaged) never fire, and
// truncated contacts keep a shortened duration (a smaller transfer budget).
func buildEvents(cfg Config, span float64, fm *faults.Model) []event {
	gateways := GatewayContacts(cfg, span)
	n := len(cfg.Photos) + len(cfg.Trace.Contacts) + len(gateways)
	if cfg.SampleInterval > 0 {
		n += int(span / cfg.SampleInterval)
	}
	var crashes []faults.Crash
	if fm != nil {
		crashes = fm.Crashes()
		n += len(crashes)
	}
	events := make([]event, 0, n)
	for i, pe := range cfg.Photos {
		t := pe.Time
		if fm != nil {
			t += fm.Skew(pe.Node)
			if t < 0 {
				t = 0
			}
			if fm.Down(pe.Node, t) {
				continue // a crashed device takes no photos
			}
		}
		if t > span {
			continue
		}
		events = append(events, event{time: t, kind: evPhoto, a: pe.Node, photo: int32(i)})
	}
	addContact := func(c trace.Contact) {
		events = append(events, event{time: c.Start, end: c.End, kind: evContact, a: c.A, b: c.B})
	}
	for _, c := range cfg.Trace.Contacts {
		if c.Start > span {
			continue
		}
		if fm != nil {
			if fm.Down(c.A, c.Start) || fm.Down(c.B, c.Start) || fm.DropContact(c) {
				continue
			}
			if f := fm.TruncFactor(c); f < 1 {
				c.End = c.Start + c.Duration()*f
			}
		}
		addContact(c)
	}
	for _, c := range gateways {
		if fm != nil && (fm.Down(c.A, c.Start) || fm.GatewayOutage(c)) {
			continue
		}
		addContact(c)
	}
	if cfg.SampleInterval > 0 {
		for t := cfg.SampleInterval; t <= span; t += cfg.SampleInterval {
			events = append(events, event{time: t, kind: evSample})
		}
	}
	for _, cr := range crashes {
		if cr.Time > span {
			continue
		}
		events = append(events, event{time: cr.Time, kind: evCrash, a: cr.Node})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].time != events[j].time {
			return events[i].time < events[j].time
		}
		return events[i].kind < events[j].kind
	})
	return events
}
