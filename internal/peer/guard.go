// Adversarial-peer hardening: the peer half of the internal/guard layer.
// WithGuard arms a peer against hostile remotes — contact admission control
// per peer, semantic validation of every inbound message,
// and a journaled TTL quarantine for repeat offenders. Without the option
// every hook in this file is a strict no-op and the contact path behaves
// bit-identically to a pre-guard peer (pinned by TestGuardDisabledNoOp).
package peer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"photodtn/internal/guard"
	"photodtn/internal/model"
	"photodtn/internal/obs"
)

// Guard sentinels. ErrProtocolViolation wraps ErrProtocol, so existing
// errors.Is(err, ErrProtocol) checks keep matching; all three classify as
// ErrContactRejected (never retried — a misbehaving remote does not get
// better on the next attempt).
var (
	// ErrProtocolViolation reports an inbound message of the wrong type
	// for the contact's current round, or one a semantic validator
	// rejected. A wrong type aborts the contact with or without the guard;
	// only an armed guard scores it.
	ErrProtocolViolation = fmt.Errorf("%w: message rejected by guard", ErrProtocol)
	// ErrPeerQuarantined reports a contact with a peer inside its
	// quarantine TTL.
	ErrPeerQuarantined = errors.New("peer: remote is quarantined")
	// ErrRateLimited reports a contact shed by the per-peer contact token
	// bucket.
	ErrRateLimited = errors.New("peer: remote exceeded its rate budget")
)

// WithGuard arms the peer's adversarial hardening with the given contact
// rate and quarantine TTL (zero fields take guard defaults). It enables
// scoring of out-of-round messages (which abort the contact either way),
// semantic validation of inbound messages under the guard's fixed bounds,
// per-peer contact rate limiting, a misbehavior-scored TTL quarantine
// (journaled on durable peers), and bounds on the metadata cache.
func WithGuard(cfg guard.Config) Option {
	return optionFunc(func(p *Peer) { p.guardCfg = &cfg })
}

// GuardStats returns the guard's activity snapshot (zero when the guard is
// disabled).
func (p *Peer) GuardStats() guard.Stats {
	return p.guard.Stats(p.clock())
}

// GuardEnabled reports whether WithGuard armed this peer.
func (p *Peer) GuardEnabled() bool { return p.guard != nil }

// initGuard finishes guard construction during New, after options and the
// metadata cache exist but before journal recovery (recovered quarantine
// records need the guard in place).
func (p *Peer) initGuard() {
	if p.guardCfg == nil {
		return
	}
	p.guard = guard.New(*p.guardCfg, p.obsv)
	p.guard.OnQuarantine(p.noteQuarantine)
	p.cache.SetLimits(guard.DefaultMaxCacheEntries, guard.DefaultMaxCacheBytes)
}

// noteQuarantine runs once per quarantine imposition (outside the guard
// lock): journal the ban so it survives a restart, and trace it. A journal
// failure poisons the peer exactly like any other append failure — the
// quarantine is enforced in memory either way.
func (p *Peer) noteQuarantine(node model.NodeID, until float64, reason guard.Reason) {
	p.mu.Lock()
	if p.jnl != nil && p.journalErr == nil {
		if err := p.jnl.Append(recGuard, encodeQuarantine(node, until, reason)); err != nil {
			p.journalErr = fmt.Errorf("%w: journal quarantine: %w", ErrJournal, err)
		}
	}
	p.mu.Unlock()
	p.obsv.Emit(obs.Event{
		Time: p.clock(), Kind: obs.EvPeerQuarantined,
		A: int32(p.id), B: int32(node), Photo: obs.NoPhoto,
		Value: until,
	})
}

// wrapAdmitErr maps guard admission errors onto the peer's sentinels.
func wrapAdmitErr(err error) error {
	switch {
	case errors.Is(err, guard.ErrQuarantined):
		return fmt.Errorf("%w: %w", ErrPeerQuarantined, err)
	case errors.Is(err, guard.ErrRateLimited):
		return fmt.Errorf("%w: %w", ErrRateLimited, err)
	}
	return err
}

// violation reports one semantic violation by the session's remote and
// returns the abort error. The contact dies with ErrProtocolViolation
// before anything is journaled or applied — the §III-D clean abort.
func (s *session) violation(v *guard.Violation) error {
	p := s.p
	if p.guard != nil && s.remoteKnown {
		p.guard.Report(s.remote, v.Reason, p.clock())
	}
	return fmt.Errorf("%w: %w", ErrProtocolViolation, v)
}

// violationf is violation with an inline reason/detail.
func (s *session) violationf(r guard.Reason, format string, args ...any) error {
	return s.violation(&guard.Violation{Reason: r, Detail: fmt.Sprintf(format, args...)})
}

// --- quarantine journal record ---

// encodeQuarantine builds a recGuard payload:
// [guardQuarantine][node u32][until f64][reason u8].
func encodeQuarantine(node model.NodeID, until float64, reason guard.Reason) []byte {
	buf := make([]byte, 0, 1+4+8+1)
	buf = append(buf, guardQuarantine)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(node))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(until))
	return append(buf, byte(reason))
}
