package session

import (
	"errors"
	"testing"

	"photodtn/internal/wire"
)

func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{
		PhaseHandshake: "handshake", PhaseMetadata: "metadata", PhasePlan: "plan",
		PhaseTransferA: "transfer-a", PhaseTransferB: "transfer-b",
		PhaseClose: "close", PhaseDone: "done",
	}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
	if Phase(42).String() != "Phase(42)" {
		t.Fatalf("unknown phase = %q", Phase(42).String())
	}
}

func TestToIsStrictlyMonotone(t *testing.T) {
	m := NewMachine()
	if m.Phase() != PhaseHandshake {
		t.Fatalf("new machine in %v", m.Phase())
	}
	// Forward, including skips, is legal.
	for _, p := range []Phase{PhaseMetadata, PhaseTransferA, PhaseClose, PhaseDone} {
		if err := m.To(p); err != nil {
			t.Fatalf("To(%v): %v", p, err)
		}
	}
	// Nothing follows Done.
	if err := m.To(PhaseDone); !errors.Is(err, ErrPhase) {
		t.Fatalf("To(Done) after Done = %v, want ErrPhase", err)
	}

	m = NewMachine()
	if err := m.To(PhasePlan); err != nil {
		t.Fatal(err)
	}
	// Re-entering the current phase means a round ran twice.
	if err := m.To(PhasePlan); !errors.Is(err, ErrPhase) {
		t.Fatalf("re-enter = %v, want ErrPhase", err)
	}
	// Moving backward is a replayed round.
	if err := m.To(PhaseMetadata); !errors.Is(err, ErrPhase) {
		t.Fatalf("backward = %v, want ErrPhase", err)
	}
	// Unknown phases are rejected.
	if err := m.To(Phase(99)); !errors.Is(err, ErrPhase) {
		t.Fatalf("unknown = %v, want ErrPhase", err)
	}
	// Failed transitions leave the machine where it was.
	if m.Phase() != PhasePlan {
		t.Fatalf("machine moved to %v on failed transitions", m.Phase())
	}
}

func TestAdmitPerPhase(t *testing.T) {
	all := []wire.MsgType{
		wire.MsgHello, wire.MsgHelloAck, wire.MsgMetadata, wire.MsgPhotoRequest,
		wire.MsgAck, wire.MsgBye, wire.MsgChunk, wire.MsgChunkAck,
		wire.MsgResumeOffer, wire.MsgMetaSummary,
	}
	// A fresh machine per message: in PhaseMetadata only the summary opens
	// the round (TestMetadataRoundOrder covers what follows it).
	legal := map[Phase][]wire.MsgType{
		PhaseHandshake: {wire.MsgHello, wire.MsgHelloAck},
		PhaseMetadata:  {wire.MsgMetaSummary},
		PhasePlan:      {wire.MsgPhotoRequest, wire.MsgResumeOffer},
		PhaseTransferA: {wire.MsgChunk, wire.MsgAck, wire.MsgChunkAck},
		PhaseTransferB: {wire.MsgChunk, wire.MsgAck, wire.MsgChunkAck},
		PhaseClose:     {wire.MsgBye},
		PhaseDone:      {},
	}
	for phase, ok := range legal {
		okSet := make(map[wire.MsgType]bool, len(ok))
		for _, typ := range ok {
			okSet[typ] = true
		}
		for _, typ := range all {
			m := &Machine{phase: phase}
			err := m.Admit(typ)
			if okSet[typ] && err != nil {
				t.Fatalf("%v rejected %v: %v", phase, typ, err)
			}
			if !okSet[typ] && !errors.Is(err, ErrPhase) {
				t.Fatalf("%v admitted %v (err=%v)", phase, typ, err)
			}
		}
	}
}

// TestMetadataRoundOrder pins the metadata round: the summary comes
// first and once, the metadata second and once, and nothing else follows
// within the phase. A failed admission does not advance the round.
func TestMetadataRoundOrder(t *testing.T) {
	m := NewMachine()
	if err := m.Admit(wire.MsgMetaSummary); !errors.Is(err, ErrPhase) {
		t.Fatalf("summary during handshake = %v, want ErrPhase", err)
	}
	if err := m.To(PhaseMetadata); err != nil {
		t.Fatal(err)
	}
	if err := m.Admit(wire.MsgMetadata); !errors.Is(err, ErrPhase) {
		t.Fatalf("metadata before summary = %v, want ErrPhase", err)
	}
	if err := m.Admit(wire.MsgMetaSummary); err != nil {
		t.Fatalf("summary: %v", err)
	}
	if err := m.Admit(wire.MsgMetaSummary); !errors.Is(err, ErrPhase) {
		t.Fatalf("second summary = %v, want ErrPhase", err)
	}
	if err := m.Admit(wire.MsgMetadata); err != nil {
		t.Fatalf("metadata after summary: %v", err)
	}
	for _, typ := range []wire.MsgType{wire.MsgMetadata, wire.MsgMetaSummary} {
		if err := m.Admit(typ); !errors.Is(err, ErrPhase) {
			t.Fatalf("%v after the round = %v, want ErrPhase", typ, err)
		}
	}
	if err := m.To(PhasePlan); err != nil {
		t.Fatal(err)
	}
	if err := m.Admit(wire.MsgMetaSummary); !errors.Is(err, ErrPhase) {
		t.Fatalf("summary during plan = %v, want ErrPhase", err)
	}
}

func TestTransferPhase(t *testing.T) {
	m := NewMachine()
	p, err := m.TransferPhase()
	if err != nil || p != PhaseTransferA {
		t.Fatalf("first leg = %v, %v", p, err)
	}
	if err := m.To(PhaseTransferA); err != nil {
		t.Fatal(err)
	}
	p, err = m.TransferPhase()
	if err != nil || p != PhaseTransferB {
		t.Fatalf("second leg = %v, %v", p, err)
	}
	if err := m.To(PhaseTransferB); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TransferPhase(); !errors.Is(err, ErrPhase) {
		t.Fatalf("third leg = %v, want ErrPhase", err)
	}
}
