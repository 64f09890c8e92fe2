package faults

import (
	"errors"
	"io"
	"math"
	"net"
	"testing"

	"photodtn/internal/guard"
	"photodtn/internal/wire"
)

// TestByzantineOpensMetadataRound pins what each strategy sends once the
// handshake is done, read by a scripted honest responder: the metadata
// strategies open with a summary the guard accepts, so their attack meets
// the check it targets; phase-desync skips the round; malformed-summary
// repeats a node; absurd-claim sends nothing more.
func TestByzantineOpensMetadataRound(t *testing.T) {
	for _, strat := range ByzStrategies() {
		t.Run(strat.String(), func(t *testing.T) {
			ca, cb := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				_ = (&ByzantinePeer{Node: 99, Strategy: strat, Time: 1000, Seed: 1}).Contact(ca)
			}()
			defer func() {
				_ = cb.Close()
				<-done
			}()
			_, theirs, err := wire.Negotiate(cb, wire.Hello{Node: 1, Time: 1000}, wire.Params{}, false)
			if err != nil {
				t.Fatalf("handshake: %v", err)
			}
			session := math.Max(1000, theirs.Time)
			msg, err := wire.Read(cb)
			switch strat {
			case ByzAbsurdClaim:
				if !errors.Is(err, io.EOF) {
					t.Fatalf("absurd-claim sent %v, %v after its hello; want EOF", msg, err)
				}
				return
			case ByzPhaseDesync:
				if _, ok := msg.(wire.PhotoRequest); !ok || err != nil {
					t.Fatalf("phase-desync opened with %v, %v; want a PhotoRequest", msg, err)
				}
				return
			}
			sum, ok := msg.(wire.MetaSummary)
			if !ok || err != nil {
				t.Fatalf("opened the metadata round with %v, %v; want a MetaSummary", msg, err)
			}
			v := guard.CheckMetaSummary(sum, session)
			if strat == ByzMalformedSummary {
				if v == nil || v.Reason != guard.ReasonReplay {
					t.Fatalf("malformed summary drew %v, want a replay violation", v)
				}
				return
			}
			if v != nil {
				t.Fatalf("summary rejected: %v", v)
			}
			if err := wire.Write(cb, wire.MetaSummary{}); err != nil {
				t.Fatal(err)
			}
			if msg, err := wire.Read(cb); err != nil || msg.Type() != wire.MsgMetadata {
				t.Fatalf("after the summaries got %v, %v; want Metadata", msg, err)
			}
		})
	}
}
