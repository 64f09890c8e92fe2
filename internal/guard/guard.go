// Package guard is the live path's defense-in-depth layer against
// adversarial peers. The paper's setting is opportunistic contacts with
// untrusted participants: a hostile or buggy remote can inject absurd
// PROPHET predictabilities, poison the metadata cache with far-future
// snapshots, replay frames, send messages out of their protocol round, or
// flood contacts to starve honest ones. The journal (PR 5) protects the
// node against its own crashes and the session layer (PR 7) against its
// own concurrency; this package protects it against *other nodes*.
//
// It provides three mechanisms, all driven by the caller's logical clock so
// behaviour is deterministic under test:
//
//   - Per-peer contact admission: a token bucket per remote peer. A peer
//     over its budget is shed with ErrRateLimited before any protocol
//     state is touched.
//   - A misbehavior score per peer, bumped by typed violations (Reason).
//     Crossing the threshold quarantines the peer for a TTL; contacts from
//     a quarantined peer are rejected with ErrQuarantined at admission.
//   - Semantic validators (validate.go) for every inbound message class,
//     returning typed *Violation errors the peer layer reports back here.
//
// The policy is fixed: its bounds are package constants, and a deployment
// sets only the contact rate and the quarantine TTL (Config). Inbound
// bytes need no meter of their own: every frame is capped at
// wire.MaxFrame, typed reads fix the number of rounds a contact has, and
// chunks are pinned to the want-set without repeats.
//
// The guard holds its own mutex and never calls back into the peer while
// holding it: quarantine notifications run after the lock is released, so
// the peer may journal them under its own lock without lock-order cycles.
// A nil *Guard is a strict no-op on every method, mirroring the obs
// package's disabled-is-free convention.
package guard

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"photodtn/internal/model"
	"photodtn/internal/obs"
)

// Admission errors. The peer layer wraps these in its own sentinels
// (peer.ErrPeerQuarantined, peer.ErrRateLimited).
var (
	// ErrQuarantined reports a contact from a peer inside its quarantine
	// TTL.
	ErrQuarantined = errors.New("guard: peer quarantined")
	// ErrRateLimited reports a contact shed by its peer's token bucket.
	ErrRateLimited = errors.New("guard: peer rate limited")
)

// Reason classifies a protocol violation. The taxonomy is the detector
// column of DESIGN.md §12's threat table; Stats counts violations per
// reason so an operator can tell a flood from a poisoning attempt.
type Reason uint8

// Violation reasons.
const (
	// ReasonPhase: out-of-order, duplicate, or phase-invalid message (the
	// session's typed read for the current round got another type).
	ReasonPhase Reason = iota + 1
	// ReasonReplay: a replayed frame or duplicate entry (second metadata
	// entry for one origin, duplicate chunk within a session).
	ReasonReplay
	// ReasonBadProphet: a delivery predictability or contact rate outside
	// its legal range (PROPHET probabilities live in [0,1]).
	ReasonBadProphet
	// ReasonBadTimestamp: a timestamp beyond the clock-skew allowance —
	// the monotone-age guard against entries that would never expire.
	ReasonBadTimestamp
	// ReasonBadGeometry: photo/footprint geometry that is not physically
	// meaningful (non-finite coordinates, degenerate arcs).
	ReasonBadGeometry
	// ReasonOversized: a declared size or count above the negotiated caps.
	ReasonOversized
	// ReasonBadTransfer: a Chunk, ChunkAck or ResumeOffer inconsistent with
	// the pinned transfer plan.
	ReasonBadTransfer
	// ReasonFlood: a token bucket shed the peer (counted as a soft
	// violation so sustained flooding eventually quarantines).
	ReasonFlood

	numReasons
)

// String implements fmt.Stringer; the forms are stable (they name obs
// counters).
func (r Reason) String() string {
	switch r {
	case ReasonPhase:
		return "phase"
	case ReasonReplay:
		return "replay"
	case ReasonBadProphet:
		return "bad-prophet"
	case ReasonBadTimestamp:
		return "bad-timestamp"
	case ReasonBadGeometry:
		return "bad-geometry"
	case ReasonOversized:
		return "oversized"
	case ReasonBadTransfer:
		return "bad-transfer"
	case ReasonFlood:
		return "flood"
	default:
		return "unknown"
	}
}

// weight is the misbehavior-score cost of one violation. Floods are softer
// than semantic violations: an honest peer behind a bursty link may trip
// the bucket, but it never sends a malformed PROPHET value.
func (r Reason) weight() float64 {
	if r == ReasonFlood {
		return 0.25
	}
	return 1
}

// Violation is one typed semantic-validation failure. It is an error so
// validators compose with the peer's error chain.
type Violation struct {
	Reason Reason
	Detail string
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("guard: %v violation: %s", v.Reason, v.Detail)
}

// violationf builds a Violation.
func violationf(r Reason, format string, args ...any) *Violation {
	return &Violation{Reason: r, Detail: fmt.Sprintf(format, args...)}
}

// Config holds the guard's two deployment settings. A zero field means
// its default. Durations are in seconds of the peer's logical clock.
type Config struct {
	// MaxContactRate is the per-peer contact admission rate in
	// contacts/second (token bucket; default DefaultMaxContactRate).
	MaxContactRate float64
	// QuarantineTTL is how long a quarantined peer stays banned, in
	// seconds (default DefaultQuarantineTTL).
	QuarantineTTL float64
}

// Defaults of the two settings.
const (
	DefaultMaxContactRate = 1.0 // contacts/second/peer
	DefaultQuarantineTTL  = 3600.0
)

// The fixed policy.
const (
	// ContactBurst is the depth of each peer's contact bucket.
	ContactBurst = 8
	// QuarantineScore is the misbehavior score that triggers quarantine.
	QuarantineScore = 3.0
	// ScoreHalfLife is the exponential half-life of the misbehavior score,
	// in seconds.
	ScoreHalfLife = 600.0
	// MaxClockSkew bounds how far a remote timestamp (hello time, metadata
	// snapshot time) may sit from the local clock. DTN clocks drift, so it
	// allows a day.
	MaxClockSkew = 86400.0
	// MaxPhotoBytes caps a photo's declared size and a transfer's declared
	// total.
	MaxPhotoBytes = 64 << 20
	// MaxPeerCapacity caps the storage capacity a non-command-center peer
	// may advertise: an absurd capacity claim would otherwise vacuum the
	// joint reallocation's best photos onto the liar.
	MaxPeerCapacity = 1 << 40
	// MaxMetaEntries caps the entries of one metadata message.
	MaxMetaEntries = 4096
	// MaxPhotosPerEntry caps one metadata entry's photo list.
	MaxPhotosPerEntry = 65536
	// DefaultMaxCacheEntries and DefaultMaxCacheBytes bound an armed
	// peer's metadata cache (metadata.Cache.SetLimits).
	DefaultMaxCacheEntries = 4096
	DefaultMaxCacheBytes   = 256 << 20
)

// withDefaults resolves zero (and negative) settings to their defaults.
func (c Config) withDefaults() Config {
	if c.MaxContactRate <= 0 {
		c.MaxContactRate = DefaultMaxContactRate
	}
	if c.QuarantineTTL <= 0 {
		c.QuarantineTTL = DefaultQuarantineTTL
	}
	return c
}

// bucket is a token bucket on the logical clock. Tokens refill at rate per
// second up to ContactBurst; frozen clocks (tests) simply never refill.
type bucket struct {
	tokens float64
	last   float64
	primed bool
}

// take spends one token, reporting false when the bucket is dry.
func (b *bucket) take(now, rate float64) bool {
	if !b.primed {
		b.tokens, b.last, b.primed = ContactBurst, now, true
	}
	if now > b.last {
		b.tokens = math.Min(b.tokens+(now-b.last)*rate, ContactBurst)
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// acct is one remote peer's ledger.
type acct struct {
	contacts bucket
	score    float64
	scoreAt  float64
	quarTo   float64 // quarantine expiry (logical seconds); 0 = none
}

// QuarantineEntry is one active quarantine, for snapshots and stats.
type QuarantineEntry struct {
	Node  model.NodeID
	Until float64
}

// Stats is a point-in-time summary of the guard's activity.
type Stats struct {
	// Violations is the total violation count; ByReason breaks it down.
	Violations int64
	ByReason   map[Reason]int64
	// ShedContacts counts contacts rejected at admission (rate or
	// quarantine).
	ShedContacts int64
	// QuarantineEvents counts quarantine impositions since creation;
	// Quarantined is the number currently active (at the time of the last
	// mutating call).
	QuarantineEvents int64
	Quarantined      int
}

// Guard is the per-peer accounting table. All methods are safe for
// concurrent use; a nil *Guard accepts everything and does nothing.
type Guard struct {
	cfg Config

	mu    sync.Mutex
	peers map[model.NodeID]*acct

	violations [numReasons]int64
	shed       int64
	quarEvents int64

	// onQuarantine is invoked after the guard lock is released, once per
	// imposition — the peer layer journals and traces the event here.
	onQuarantine func(node model.NodeID, until float64, reason Reason)

	cViolations *obs.Counter
	cShed       *obs.Counter
	cQuarEvents *obs.Counter
	gActive     *obs.Gauge
	byReason    [numReasons]*obs.Counter
}

// New returns a guard with the config's defaults resolved. The observer may
// be nil (metrics become no-ops).
func New(cfg Config, o *obs.Observer) *Guard {
	g := &Guard{
		cfg:         cfg.withDefaults(),
		peers:       make(map[model.NodeID]*acct),
		cViolations: o.Counter("guard.violations"),
		cShed:       o.Counter("guard.shed_contacts"),
		cQuarEvents: o.Counter("guard.quarantine_events"),
		gActive:     o.Gauge("guard.quarantines_active"),
	}
	for r := Reason(1); r < numReasons; r++ {
		g.byReason[r] = o.Counter("guard.violations." + r.String())
	}
	return g
}

// OnQuarantine installs the quarantine notification hook. It runs outside
// the guard's lock, so it may take the peer lock (to journal) safely.
func (g *Guard) OnQuarantine(fn func(node model.NodeID, until float64, reason Reason)) {
	if g != nil {
		g.onQuarantine = fn
	}
}

func (g *Guard) acctOf(node model.NodeID) *acct {
	a := g.peers[node]
	if a == nil {
		a = &acct{}
		g.peers[node] = a
	}
	return a
}

// decayScore applies the exponential half-life to the peer's score.
func (a *acct) decayScore(now float64) {
	if now > a.scoreAt {
		a.score *= math.Exp2(-(now - a.scoreAt) / ScoreHalfLife)
	}
	a.scoreAt = now
}

// AdmitContact charges one contact admission for node. It fails with
// ErrQuarantined while the node is banned and ErrRateLimited when the
// contact bucket is dry; a dry bucket also counts a ReasonFlood violation,
// so sustained flooding escalates to quarantine.
func (g *Guard) AdmitContact(node model.NodeID, now float64) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	a := g.acctOf(node)
	if a.quarTo > now {
		g.shed++
		until := a.quarTo
		g.mu.Unlock()
		g.cShed.Inc()
		return fmt.Errorf("%w: %v until t=%.0f", ErrQuarantined, node, until)
	}
	if !a.contacts.take(now, g.cfg.MaxContactRate) {
		g.shed++
		quarantined, until := g.noteViolationLocked(a, ReasonFlood, now)
		g.mu.Unlock()
		g.cShed.Inc()
		g.notifyQuarantine(node, quarantined, until, ReasonFlood)
		return fmt.Errorf("%w: %v contact budget exhausted", ErrRateLimited, node)
	}
	g.mu.Unlock()
	return nil
}

// Report records one typed violation by node, bumping its misbehavior
// score and quarantining it when the threshold is crossed. It returns
// whether this report imposed a new quarantine.
func (g *Guard) Report(node model.NodeID, r Reason, now float64) bool {
	if g == nil || r == 0 || r >= numReasons {
		return false
	}
	g.mu.Lock()
	a := g.acctOf(node)
	quarantined, until := g.noteViolationLocked(a, r, now)
	g.mu.Unlock()
	g.notifyQuarantine(node, quarantined, until, r)
	return quarantined
}

// noteViolationLocked counts the violation and applies the score rules.
// It returns whether a new quarantine was imposed (and its expiry).
func (g *Guard) noteViolationLocked(a *acct, r Reason, now float64) (bool, float64) {
	g.violations[r]++
	g.cViolations.Inc()
	g.byReason[r].Inc()
	a.decayScore(now)
	a.score += r.weight()
	if a.score < QuarantineScore || a.quarTo > now {
		return false, a.quarTo
	}
	a.quarTo = now + g.cfg.QuarantineTTL
	a.score = 0
	g.quarEvents++
	g.cQuarEvents.Inc()
	g.gActive.Set(float64(g.activeLocked(now)))
	return true, a.quarTo
}

func (g *Guard) notifyQuarantine(node model.NodeID, imposed bool, until float64, r Reason) {
	if imposed && g.onQuarantine != nil {
		g.onQuarantine(node, until, r)
	}
}

// Quarantined reports whether node is currently banned.
func (g *Guard) Quarantined(node model.NodeID, now float64) bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	a := g.peers[node]
	return a != nil && a.quarTo > now
}

// RestoreQuarantine reimposes a quarantine recovered from the journal or a
// snapshot. Expired entries (until <= now) are dropped silently. No
// notification fires: the imposition was already journaled by the
// incarnation that made it.
func (g *Guard) RestoreQuarantine(node model.NodeID, until, now float64) {
	if g == nil || until <= now {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	a := g.acctOf(node)
	if until > a.quarTo {
		a.quarTo = until
	}
	g.gActive.Set(float64(g.activeLocked(now)))
}

func (g *Guard) activeLocked(now float64) int {
	n := 0
	for _, a := range g.peers {
		if a.quarTo > now {
			n++
		}
	}
	return n
}

// ActiveQuarantines returns the quarantines still in force, sorted by node
// ID — the snapshot surface the peer's checkpoint encodes.
func (g *Guard) ActiveQuarantines(now float64) []QuarantineEntry {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]QuarantineEntry, 0, len(g.peers))
	for node, a := range g.peers {
		if a.quarTo > now {
			out = append(out, QuarantineEntry{Node: node, Until: a.quarTo})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Stats returns a snapshot of the guard's counters. now bounds which
// quarantines count as active.
func (g *Guard) Stats(now float64) Stats {
	if g == nil {
		return Stats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	s := Stats{
		ShedContacts:     g.shed,
		QuarantineEvents: g.quarEvents,
		Quarantined:      g.activeLocked(now),
		ByReason:         make(map[Reason]int64),
	}
	for r := Reason(1); r < numReasons; r++ {
		if g.violations[r] > 0 {
			s.ByReason[r] = g.violations[r]
			s.Violations += g.violations[r]
		}
	}
	return s
}
