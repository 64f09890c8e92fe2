// Byzantine adversary driver: a fake peer that speaks just enough of the
// wire protocol to reach its attack point, then misbehaves in one of a
// fixed set of seeded, reproducible ways. The honest node under test runs
// its real contact path against the adversary's connection; the property
// harness asserts that no strategy perturbs the honest node's durable
// state — every attack ends in a clean §III-D abort (or a shed contact)
// with nothing journaled and nothing applied.
package faults

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"photodtn/internal/geo"
	"photodtn/internal/metadata"
	"photodtn/internal/model"
	"photodtn/internal/wire"
)

// ByzStrategy selects one adversarial behaviour.
type ByzStrategy int

const (
	// ByzAbsurdClaim advertises impossible PROPHET values in the hello:
	// a delivery predictability far above 1 and a negative contact rate.
	ByzAbsurdClaim ByzStrategy = iota
	// ByzPoisonedMetadata sends a metadata snapshot stamped far in the
	// future and carrying non-finite photo coordinates.
	ByzPoisonedMetadata
	// ByzReplay lists the same origin twice in one metadata message — a
	// replayed snapshot smuggled alongside the live one.
	ByzReplay
	// ByzOversizedClaim declares a photo of 2^60 bytes, baiting the
	// receiver into planning storage it could never hold.
	ByzOversizedClaim
	// ByzPhaseDesync skips the metadata round entirely and opens with a
	// plan-phase message, violating the protocol's round order.
	ByzPhaseDesync
	// ByzFlood speaks a well-formed handshake and metadata round, then
	// abandons the contact; the harness dials it in rapid succession so
	// the per-peer contact bucket runs dry.
	ByzFlood
	// ByzUnrequestedChunk advertises an empty collection, so the honest
	// node's reallocation requests nothing from it, then pushes the first
	// chunk of a multi-chunk photo anyway — baiting a resuming receiver
	// into storing (and journaling) a partial it never asked for.
	ByzUnrequestedChunk
	// ByzLyingSummary claims in a well-formed summary to hold a snapshot
	// of every node stamped at the session time, so the honest node
	// withholds all its gossip; it then completes the metadata round and
	// walks away. The lie can only starve the liar: no check trips, and
	// the honest node's state must not move.
	ByzLyingSummary
	// ByzMalformedSummary lists one node twice in its summary — a replayed
	// pair the wire decoder lets through for the guard to catch.
	ByzMalformedSummary
	// ByzReplayedRound completes the metadata round honestly, then sends
	// its metadata a second time where the plan's PhotoRequest is due — a
	// replayed round.
	ByzReplayedRound
	// ByzTransferDesync plays an honest initiator through the plan round,
	// then sends a MetaSummary where the honest side expects a Chunk — a
	// frame from the wrong round inside a transfer leg.
	ByzTransferDesync
	// ByzLyingDelivered claims in a well-formed summary that its ack
	// ledger holds every photo any world it is dropped into has minted, so
	// the honest node sends its command-center entry without photos; it
	// then completes the metadata round and walks away. Like
	// ByzLyingSummary it trips no check and can only starve the liar.
	ByzLyingDelivered

	numByzStrategies
)

// ByzStrategies returns every strategy, for sweep-style tests.
func ByzStrategies() []ByzStrategy {
	out := make([]ByzStrategy, 0, numByzStrategies)
	for s := ByzStrategy(0); s < numByzStrategies; s++ {
		out = append(out, s)
	}
	return out
}

// String implements fmt.Stringer.
func (s ByzStrategy) String() string {
	switch s {
	case ByzAbsurdClaim:
		return "absurd-claim"
	case ByzPoisonedMetadata:
		return "poisoned-metadata"
	case ByzReplay:
		return "replay"
	case ByzOversizedClaim:
		return "oversized-claim"
	case ByzPhaseDesync:
		return "phase-desync"
	case ByzFlood:
		return "flood"
	case ByzUnrequestedChunk:
		return "unrequested-chunk"
	case ByzLyingSummary:
		return "lying-summary"
	case ByzMalformedSummary:
		return "malformed-summary"
	case ByzReplayedRound:
		return "replayed-round"
	case ByzTransferDesync:
		return "transfer-desync"
	case ByzLyingDelivered:
		return "lying-delivered"
	default:
		return fmt.Sprintf("ByzStrategy(%d)", int(s))
	}
}

// ByzantinePeer is one adversarial remote. It always dials as the contact
// initiator (the initiator writes first at every round, so the adversary
// controls exactly which hostile bytes the honest responder reads).
type ByzantinePeer struct {
	// Node is the identity the adversary claims.
	Node model.NodeID
	// Strategy picks the misbehaviour.
	Strategy ByzStrategy
	// Time is the clock the adversary advertises. Post-hello strategies
	// must pass the honest node's skew gate to reach their attack point,
	// so set this near the honest node's clock (ByzPoisonedMetadata lies
	// in the metadata timestamps instead, where the gate it is testing
	// lives).
	Time float64
	// Seed makes the adversary's nonces reproducible.
	Seed int64

	rng *rand.Rand
}

// Contact runs one adversarial contact over conn and closes it on the way
// out (the adversary walks out of radio range; the honest side sees EOF
// rather than a hung frame deadline). The returned error is the
// adversary's own view of the exchange — usually the honest node hanging
// up mid-attack — and is informational only: the property the harness
// checks lives on the honest side.
func (b *ByzantinePeer) Contact(conn io.ReadWriter) error {
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(b.Seed))
	}
	defer func() {
		if c, ok := conn.(io.Closer); ok {
			_ = c.Close()
		}
	}()

	hello := wire.Hello{
		Node:         b.Node,
		Lambda:       0.01,
		DeliveryProb: 0.5,
		Time:         b.Time,
		Nonce:        b.rng.Uint64(),
		Capacity:     64 << 20,
	}
	if b.Strategy == ByzAbsurdClaim {
		hello.DeliveryProb = 42
		hello.Lambda = -3
	}
	// Advertise resume like a default honest peer, so a chunk that slips
	// through lands in the receiver's shared fragment store.
	params, theirs, err := wire.Negotiate(conn, hello, wire.Params{Resume: true}, true)
	if err != nil {
		return err
	}

	switch b.Strategy {
	case ByzAbsurdClaim:
		// The hello already carried the attack; the honest node aborts
		// without writing, so just leave.
		return nil
	case ByzPhaseDesync:
		// A plan-phase message where the metadata round is due.
		return wire.Write(conn, wire.PhotoRequest{IDs: []model.PhotoID{1}})
	case ByzLyingSummary:
		return b.lie(conn, lyingStamps(math.Max(hello.Time, theirs.Time)))
	case ByzLyingDelivered:
		return b.lie(conn, wire.MetaSummary{Delivered: lyingDelivered()})
	case ByzMalformedSummary:
		return wire.Write(conn, wire.MetaSummary{Entries: []metadata.Stamp{
			{Node: b.Node + 1, Timestamp: b.Time}, {Node: b.Node + 1, Timestamp: b.Time - 1},
		}})
	}
	// Every other strategy opens the metadata round honestly, so its attack
	// meets the check it targets.
	if err := b.summarise(conn, wire.MetaSummary{}); err != nil {
		return err
	}
	switch b.Strategy {
	case ByzPoisonedMetadata:
		return wire.Write(conn, wire.Metadata{Entries: []metadata.Entry{
			b.entry(0),
			{Node: b.Node + 1, Lambda: 0.1, P: 0.5, Timestamp: b.Time + 1e9,
				Photos: model.PhotoList{b.photo(1, 4<<20, math.NaN())}},
		}})
	case ByzReplay:
		e := b.entry(0)
		return wire.Write(conn, wire.Metadata{Entries: []metadata.Entry{e, e}})
	case ByzOversizedClaim:
		e := b.entry(0)
		e.Photos = model.PhotoList{b.photo(0, 1<<60, 0)}
		return wire.Write(conn, wire.Metadata{Entries: []metadata.Entry{e}})
	case ByzFlood:
		// Well-formed up to the metadata exchange, then walk away; the
		// damage is in how often the harness redials.
		if err := wire.Write(conn, wire.Metadata{Entries: []metadata.Entry{b.entry(0)}}); err != nil {
			return err
		}
		_, err := wire.Read(conn)
		return err
	case ByzReplayedRound:
		md := wire.Metadata{Entries: []metadata.Entry{b.entry(0)}}
		if err := wire.Write(conn, md); err != nil {
			return err
		}
		if _, err := wire.Read(conn); err != nil { // the honest side's metadata
			return err
		}
		return wire.Write(conn, md)
	case ByzUnrequestedChunk:
		// Chunk 0 of a two-chunk photo the honest side never requested, at
		// the negotiated chunk size so only the want-set pin can catch it.
		size := params.ChunkSize
		return b.inTransfer(conn, wire.Chunk{
			Photo: b.photo(0, 4<<20, 0), Index: 0, Count: 2, ChunkSize: size,
			Total: 2 * uint64(size), Data: make([]byte, size),
		})
	case ByzTransferDesync:
		return b.inTransfer(conn, wire.MetaSummary{})
	default:
		return fmt.Errorf("unknown byzantine strategy %v", b.Strategy)
	}
}

// summarise sends the adversary's summary and reads the honest side's.
func (b *ByzantinePeer) summarise(conn io.ReadWriter, sum wire.MetaSummary) error {
	if err := wire.Write(conn, sum); err != nil {
		return err
	}
	_, err := wire.Read(conn)
	return err
}

// lieNodes is how many node IDs the lying summary claims: more than any
// world the adversary is dropped into has.
const lieNodes = 1024

// lyingStamps claims a snapshot of every node stamped at the session time.
func lyingStamps(session float64) wire.MetaSummary {
	lie := wire.MetaSummary{Entries: make([]metadata.Stamp, lieNodes)}
	for i := range lie.Entries {
		lie.Entries[i] = metadata.Stamp{Node: model.NodeID(i + 1), Timestamp: session}
	}
	return lie
}

// lieOwners and lieSeqs bound the photo IDs the lying ledger claims: the
// first lieSeqs photos of each of nodes 1 to lieOwners, 65,536 IDs in all,
// the guard's default cap on one entry's photos.
const lieOwners, lieSeqs = 256, 256

// lyingDelivered claims, in increasing order, every photo ID that nodes 1
// to lieOwners mint in their first lieSeqs captures.
func lyingDelivered() []model.PhotoID {
	ids := make([]model.PhotoID, 0, lieOwners*lieSeqs)
	for owner := model.NodeID(1); owner <= lieOwners; owner++ {
		for seq := uint32(0); seq < lieSeqs; seq++ {
			ids = append(ids, model.MakePhotoID(owner, seq))
		}
	}
	return ids
}

// lie sends the lying summary sum and its own collection, reads the honest
// metadata and leaves. Its error reports any gossip the honest side sent
// despite the lie: a non-command-center entry past a claim of every node,
// or a ledger photo past a claim of every photo. The command center's entry
// itself always goes, as no stamp covers a union and its header carries
// the stamp.
func (b *ByzantinePeer) lie(conn io.ReadWriter, sum wire.MetaSummary) error {
	if err := b.summarise(conn, sum); err != nil {
		return err
	}
	if err := wire.Write(conn, wire.Metadata{Entries: []metadata.Entry{b.entry(0)}}); err != nil {
		return err
	}
	msg, err := wire.Read(conn)
	if err != nil {
		return err
	}
	md, _ := msg.(wire.Metadata)
	for _, e := range md.Entries[min(1, len(md.Entries)):] {
		switch {
		case !e.Node.IsCommandCenter() && len(sum.Entries) > 0:
			return fmt.Errorf("honest side sent node %v's entry past the lie", e.Node)
		case e.Node.IsCommandCenter() && len(sum.Delivered) > 0 && len(e.Photos) > 0:
			return fmt.Errorf("honest side sent %d ledger photos past the lie", len(e.Photos))
		}
	}
	return nil
}

// inTransfer plays an honest initiator through the plan round with an
// empty collection and an empty request, then sends msg where the honest
// responder's transfer leg is due and reads its answer.
func (b *ByzantinePeer) inTransfer(conn io.ReadWriter, msg wire.Message) error {
	own := b.entry(0)
	own.Photos = nil
	if err := wire.Write(conn, wire.Metadata{Entries: []metadata.Entry{own}}); err != nil {
		return err
	}
	if _, err := wire.Read(conn); err != nil { // the honest side's metadata
		return err
	}
	if err := wire.Write(conn, wire.PhotoRequest{}); err != nil {
		return err
	}
	if err := wire.Write(conn, wire.ResumeOffer{}); err != nil {
		return err
	}
	for i := 0; i < 2; i++ { // its request and resume offer
		if _, err := wire.Read(conn); err != nil {
			return err
		}
	}
	if err := wire.Write(conn, msg); err != nil {
		return err
	}
	_, err := wire.Read(conn)
	return err
}

// entry builds a well-formed metadata entry for the adversary's claimed
// identity, holding one plausible photo.
func (b *ByzantinePeer) entry(seq uint32) metadata.Entry {
	return metadata.Entry{
		Node:      b.Node,
		Lambda:    0.01,
		P:         0.5,
		Timestamp: b.Time,
		Photos:    model.PhotoList{b.photo(seq, 4<<20, 0)},
	}
}

// photo builds a photo owned by the adversary; size and x let strategies
// poison single fields while the rest stays decodable.
func (b *ByzantinePeer) photo(seq uint32, size int64, x float64) model.Photo {
	return model.Photo{
		ID:          model.MakePhotoID(b.Node, seq),
		Owner:       b.Node,
		Location:    geo.Vec{X: x, Y: 10},
		Range:       120,
		FOV:         geo.Radians(60),
		Orientation: 0,
		Size:        size,
	}
}
