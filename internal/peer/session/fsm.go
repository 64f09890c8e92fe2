// Package session defines the explicit per-contact protocol state machine
// the peer drives every live contact through. The protocol is a fixed
// sequence of rounds — handshake, metadata exchange (a summary, then the
// entries), plan negotiation, one or two transfer legs, close — and within
// each round only a small set of message types is legal. Before this
// package the rounds were implicit in the code path (a typed read rejected
// the wrong concrete type); making them explicit lets the peer reject
// out-of-order, duplicate, or phase-invalid messages as *protocol
// violations* with a clean §III-D abort, and hand the guard layer a typed
// reason instead of a generic decode error.
//
// The machine is strictly monotone: phases only move forward, so a
// replayed round (a second Metadata after the exchange closed) is
// structurally impossible rather than merely unexpected. It is not safe
// for concurrent use; the peer's one concurrent reader (the chunk-ack
// drain goroutine) runs entirely within one phase, bracketed by channel
// synchronisation.
package session

import (
	"errors"
	"fmt"

	"photodtn/internal/wire"
)

// Phase is one protocol round.
type Phase uint8

// The rounds, in wire order. TransferA and TransferB are the two transfer
// legs of a reallocation contact (each side sends in turn); simpler
// contacts use only TransferA.
const (
	PhaseHandshake Phase = iota
	PhaseMetadata
	PhasePlan
	PhaseTransferA
	PhaseTransferB
	PhaseClose
	PhaseDone
	numPhases
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseHandshake:
		return "handshake"
	case PhaseMetadata:
		return "metadata"
	case PhasePlan:
		return "plan"
	case PhaseTransferA:
		return "transfer-a"
	case PhaseTransferB:
		return "transfer-b"
	case PhaseClose:
		return "close"
	case PhaseDone:
		return "done"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// ErrPhase reports a message or transition that violates the machine.
var ErrPhase = errors.New("session: protocol phase violation")

// allowed is the per-phase set of legal inbound message types.
var allowed = [numPhases]map[wire.MsgType]bool{
	PhaseHandshake: {wire.MsgHello: true, wire.MsgHelloAck: true},
	PhaseMetadata:  {wire.MsgMetaSummary: true, wire.MsgMetadata: true},
	PhasePlan:      {wire.MsgPhotoRequest: true, wire.MsgResumeOffer: true},
	// A transfer leg's inbound traffic depends on direction: the sender
	// reads ChunkAcks (and, as the uploader, the delivery Ack); the
	// receiver reads Chunks terminated by an Ack.
	PhaseTransferA: {wire.MsgChunk: true, wire.MsgAck: true, wire.MsgChunkAck: true},
	PhaseTransferB: {wire.MsgChunk: true, wire.MsgAck: true, wire.MsgChunkAck: true},
	PhaseClose:     {wire.MsgBye: true},
	PhaseDone:      {},
}

// metadataRound is the inbound order within PhaseMetadata: the remote's
// summary, then its metadata, each exactly once.
var metadataRound = [...]wire.MsgType{wire.MsgMetaSummary, wire.MsgMetadata}

// Machine tracks one contact's protocol phase.
type Machine struct {
	phase Phase
	// metaIn counts the metadata-round messages admitted so far.
	metaIn int
}

// NewMachine returns a machine in PhaseHandshake.
func NewMachine() *Machine { return &Machine{phase: PhaseHandshake} }

// Phase returns the current phase.
func (m *Machine) Phase() Phase { return m.phase }

// To advances the machine to next. Phases are strictly monotone: moving
// backward or re-entering the current phase is a violation (it would mean
// a protocol round ran twice), and nothing follows PhaseDone. Skipping
// forward is legal — an upload has one transfer leg.
func (m *Machine) To(next Phase) error {
	if next >= numPhases {
		return fmt.Errorf("%w: unknown phase %v", ErrPhase, next)
	}
	if next <= m.phase || m.phase == PhaseDone {
		return fmt.Errorf("%w: %v after %v", ErrPhase, next, m.phase)
	}
	m.phase = next
	return nil
}

// Admit validates one inbound message type against the current phase. In
// PhaseMetadata it also enforces the round's order (see metadataRound) and
// records the admission, so a second summary, a second metadata message,
// or a metadata message before the summary is a violation.
func (m *Machine) Admit(t wire.MsgType) error {
	if !allowed[m.phase][t] {
		return fmt.Errorf("%w: %v during %v", ErrPhase, t, m.phase)
	}
	if m.phase == PhaseMetadata {
		if m.metaIn >= len(metadataRound) || t != metadataRound[m.metaIn] {
			return fmt.Errorf("%w: %v out of turn in the metadata round", ErrPhase, t)
		}
		m.metaIn++
	}
	return nil
}

// TransferPhase returns the next unused transfer leg, or an error when
// both legs ran.
func (m *Machine) TransferPhase() (Phase, error) {
	switch {
	case m.phase < PhaseTransferA:
		return PhaseTransferA, nil
	case m.phase < PhaseTransferB:
		return PhaseTransferB, nil
	default:
		return 0, fmt.Errorf("%w: third transfer leg after %v", ErrPhase, m.phase)
	}
}
