package peer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"photodtn/internal/faults"
	"photodtn/internal/guard"
	"photodtn/internal/model"
	"photodtn/internal/obs"
)

// byzNode is the identity every adversary claims.
const byzNode = model.NodeID(99)

// byzFrameTimeout bounds honest-side reads so a walked-away or frame-lossy
// adversary costs milliseconds, not the 30s default.
const byzFrameTimeout = 300 * time.Millisecond

func byzGuardOpts() []Option {
	return []Option{
		WithGuard(guard.Config{}),
		WithFrameTimeout(byzFrameTimeout),
	}
}

// runByzContact runs one adversarial contact: the adversary dials (it is
// always the initiator), the honest peer serves. lossProb > 0 puts a lossy
// transport under the adversary's writes. It returns the honest side's
// error — the property under test lives entirely on that side.
func runByzContact(t *testing.T, honest *Peer, adv *faults.ByzantinePeer, lossProb float64, seed int64) error {
	t.Helper()
	ca, cb := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { _ = ca.Close() }()
		var rw io.ReadWriter = ca
		if lossProb > 0 {
			rw = faults.NewTransport(ca, lossProb, 0, seed)
		}
		_ = adv.Contact(rw) // the adversary's own error view is informational
	}()
	err := honest.ContactConn(cb, false)
	_ = cb.Close()
	wg.Wait()
	return err
}

// byzFixture builds the sweep's honest world: a participant holding three
// distinct views and a command center, on fixed clocks with deterministic
// seeds, so two identically-driven fixtures land on identical digests.
func byzFixture(t *testing.T, opts ...Option) (v, cc *Peer) {
	t.Helper()
	m := poiMap()
	v = newTestPeer(t, 1, m, 64*mb, opts...)
	cc = newTestPeer(t, model.CommandCenter, m, 0, opts...)
	for i := uint32(0); i < 3; i++ {
		if err := v.AddPhoto(viewFrom(1, i, float64(i)*40)); err != nil {
			t.Fatal(err)
		}
	}
	return v, cc
}

// byzBaseline runs the adversary-free reference: the participant uploads to
// the command center. It returns the participant's digest and the command
// center's delivered photo IDs — what every adversarial run must reproduce.
func byzBaseline(t *testing.T, opts ...Option) (uint64, []model.PhotoID) {
	t.Helper()
	v, cc := byzFixture(t, opts...)
	if errV, errCC := tryContact(v, cc); errV != nil || errCC != nil {
		t.Fatalf("baseline contact: victim %v, cc %v", errV, errCC)
	}
	return v.StateDigest(), sortedIDs(cc.Photos())
}

// TestByzantineSweep is the tentpole's property harness: every adversary
// strategy, clean and under 30% frame loss, against a guarded honest node.
// No strategy may perturb the honest node's durable protocol state — its
// StateDigest stays at the pre-attack value, and a subsequent honest upload
// delivers exactly the adversary-free photo set, with no duplicates.
//
// Three strategies trip no check: a flood is shed by rate limits rather
// than validation, and the two lying summaries are well-formed — they only
// cost the liar the gossip they claimed it holds.
func TestByzantineSweep(t *testing.T) {
	wantDigest, wantIDs := byzBaseline(t, byzGuardOpts()...)
	for _, strat := range faults.ByzStrategies() {
		for _, loss := range []float64{0, 0.3} {
			strat, loss := strat, loss
			violates := strat != faults.ByzFlood && strat != faults.ByzLyingSummary && strat != faults.ByzLyingDelivered
			t.Run(fmt.Sprintf("%v/loss=%v", strat, loss), func(t *testing.T) {
				v, cc := byzFixture(t, byzGuardOpts()...)
				pre := v.StateDigest()
				for i := 0; i < 3; i++ {
					adv := &faults.ByzantinePeer{
						Node: byzNode, Strategy: strat,
						Time: 1000, Seed: int64(i) + 7,
					}
					err := runByzContact(t, v, adv, loss, int64(i)+40)
					if err == nil {
						t.Fatalf("adversarial contact %d succeeded", i)
					}
					if loss == 0 && violates && i < 2 {
						// The first two clean semantic attacks must die as
						// typed protocol violations (the third may already
						// hit the quarantine instead).
						if !errors.Is(err, ErrProtocolViolation) {
							t.Fatalf("contact %d err = %v, want ErrProtocolViolation", i, err)
						}
					}
				}
				if got := v.StateDigest(); got != pre {
					t.Fatalf("adversary perturbed honest state: digest %x, want %x", got, pre)
				}
				if loss == 0 && violates {
					// Three weight-1 violations cross the default score
					// threshold: the adversary is now quarantined.
					st := v.GuardStats()
					if st.QuarantineEvents != 1 || st.Quarantined != 1 {
						t.Fatalf("guard stats after clean sweep = %+v", st)
					}
					err := runByzContact(t, v, &faults.ByzantinePeer{
						Node: byzNode, Strategy: strat, Time: 1000, Seed: 77,
					}, 0, 99)
					if !errors.Is(err, ErrPeerQuarantined) {
						t.Fatalf("post-quarantine contact err = %v, want ErrPeerQuarantined", err)
					}
				}
				// The honest upload after the attacks delivers exactly the
				// adversary-free set.
				if errV, errCC := tryContact(v, cc); errV != nil || errCC != nil {
					t.Fatalf("honest upload after attacks: victim %v, cc %v", errV, errCC)
				}
				if got := v.StateDigest(); got != wantDigest {
					t.Fatalf("post-attack digest %x, want baseline %x", got, wantDigest)
				}
				gotIDs := sortedIDs(cc.Photos())
				if len(gotIDs) != len(wantIDs) {
					t.Fatalf("delivered %v, want %v", gotIDs, wantIDs)
				}
				for i := range gotIDs {
					if gotIDs[i] != wantIDs[i] {
						t.Fatalf("delivered %v, want %v", gotIDs, wantIDs)
					}
					if i > 0 && gotIDs[i] == gotIDs[i-1] {
						t.Fatalf("duplicate delivery of %v", gotIDs[i])
					}
				}
			})
		}
	}
}

// TestUnrequestedChunkRejected pins plan pinning on an empty request: an
// adversary whose metadata leaves the guarded node wanting nothing, then
// pushes a multi-chunk photo's first chunk, dies on a bad-transfer
// violation — and nothing reaches the node's shared fragment store, even
// though the session negotiated resume.
func TestUnrequestedChunkRejected(t *testing.T) {
	v, _ := byzFixture(t, byzGuardOpts()...)
	adv := &faults.ByzantinePeer{Node: byzNode, Strategy: faults.ByzUnrequestedChunk, Time: 1000, Seed: 5}
	err := runByzContact(t, v, adv, 0, 1)
	var viol *guard.Violation
	if !errors.Is(err, ErrProtocolViolation) || !errors.As(err, &viol) || viol.Reason != guard.ReasonBadTransfer {
		t.Fatalf("err = %v, want ErrProtocolViolation with reason %v", err, guard.ReasonBadTransfer)
	}
	if st := v.TransferStats(); st.Partials != 0 || st.FragmentBytes != 0 {
		t.Fatalf("unrequested chunk reached the fragment store: %+v", st)
	}
}

// TestByzantineFloodQuarantine pins the rate-limiting escalation: a flooding
// peer is first shed with ErrRateLimited, and sustained flooding crosses the
// misbehavior threshold into a quarantine.
func TestByzantineFloodQuarantine(t *testing.T) {
	m := poiMap()
	v := newTestPeer(t, 1, m, 64*mb,
		WithGuard(guard.Config{MaxContactRate: 0.001}),
		WithFrameTimeout(byzFrameTimeout))
	adv := func(seed int64) *faults.ByzantinePeer {
		return &faults.ByzantinePeer{Node: byzNode, Strategy: faults.ByzFlood, Time: 1000, Seed: seed}
	}
	// The burst admits ContactBurst contacts (which abort when the
	// adversary walks away mid-protocol — that is not a violation).
	seed := int64(0)
	for ; seed < guard.ContactBurst; seed++ {
		if err := runByzContact(t, v, adv(seed), 0, seed); errors.Is(err, ErrRateLimited) || errors.Is(err, ErrPeerQuarantined) {
			t.Fatalf("contact %d shed inside the burst: %v", seed, err)
		}
	}
	// The bucket is dry (the clock is frozen, so it never refills): each
	// contact is shed with ErrRateLimited and scores a soft flood violation
	// of 0.25, so the QuarantineScore/0.25-th shed quarantines and the
	// next contact meets the quarantine.
	sheds := int64(guard.QuarantineScore / 0.25)
	for i := int64(0); i < sheds; i, seed = i+1, seed+1 {
		if err := runByzContact(t, v, adv(seed), 0, seed); !errors.Is(err, ErrRateLimited) {
			t.Fatalf("shed %d err = %v, want ErrRateLimited", i, err)
		}
	}
	if err := runByzContact(t, v, adv(seed), 0, seed); !errors.Is(err, ErrPeerQuarantined) {
		t.Fatalf("contact after %d sheds err = %v, want ErrPeerQuarantined", sheds, err)
	}
	if st := v.GuardStats(); st.QuarantineEvents != 1 || st.ShedContacts != sheds+1 {
		t.Fatalf("guard stats = %+v", st)
	}
}

// TestByzantineQuarantinePersistence pins the durable half: a quarantine
// imposed mid-run (QuarantineScore attacks on a frozen clock) survives a
// close/reopen through journal replay alone (no checkpoint), and again
// through the snapshot path, while the aborted adversarial contacts journal
// no commits at all.
func TestByzantineQuarantinePersistence(t *testing.T) {
	m := poiMap()
	dir := t.TempDir()
	opts := []Option{
		WithSeed(101), fixedClock(1000),
		WithGuard(guard.Config{QuarantineTTL: 5000}),
		WithFrameTimeout(byzFrameTimeout),
	}
	v, err := Open(dir, 1, m, 64*mb, opts...)
	if err != nil {
		t.Fatal(err)
	}
	adv := &faults.ByzantinePeer{Node: byzNode, Strategy: faults.ByzAbsurdClaim, Time: 1000, Seed: 3}
	for i := int64(0); i < guard.QuarantineScore; i++ {
		if err := runByzContact(t, v, adv, 0, i+1); !errors.Is(err, ErrProtocolViolation) {
			t.Fatalf("attack %d err = %v, want ErrProtocolViolation", i, err)
		}
	}
	if st := v.GuardStats(); st.QuarantineEvents != 1 || st.Quarantined != 1 {
		t.Fatalf("guard stats = %+v", st)
	}
	if c := v.JournalStats().Commits; c != 0 {
		t.Fatalf("aborted adversarial contact journaled %d commits", c)
	}
	// Close without checkpointing: recovery must find the quarantine in the
	// journal records, not a snapshot.
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v2, err := Open(dir, 1, m, 64*mb, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if st := v2.GuardStats(); st.Quarantined != 1 {
		t.Fatalf("journal replay lost the quarantine: stats = %+v", st)
	}
	if err := runByzContact(t, v2, adv, 0, 10); !errors.Is(err, ErrPeerQuarantined) {
		t.Fatalf("post-restart contact err = %v, want ErrPeerQuarantined", err)
	}
	// Checkpoint and reopen: the snapshot path must carry it too.
	if err := v2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}
	v3, err := Open(dir, 1, m, 64*mb, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = v3.Close() }()
	if st := v3.GuardStats(); st.Quarantined != 1 {
		t.Fatalf("snapshot lost the quarantine: stats = %+v", st)
	}
	if err := runByzContact(t, v3, adv, 0, 11); !errors.Is(err, ErrPeerQuarantined) {
		t.Fatalf("post-snapshot contact err = %v, want ErrPeerQuarantined", err)
	}
}

// TestQuarantineRecordsSkippedWithoutGuard pins forward compatibility: a
// journal holding quarantine records replays cleanly on a peer opened with
// the guard disabled (the records are skipped, everything else recovers).
func TestQuarantineRecordsSkippedWithoutGuard(t *testing.T) {
	m := poiMap()
	dir := t.TempDir()
	guarded := []Option{
		WithSeed(101), fixedClock(1000),
		WithGuard(guard.Config{QuarantineTTL: 5000}),
		WithFrameTimeout(byzFrameTimeout),
	}
	v, err := Open(dir, 1, m, 64*mb, guarded...)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.AddPhoto(viewFrom(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	adv := &faults.ByzantinePeer{Node: byzNode, Strategy: faults.ByzAbsurdClaim, Time: 1000, Seed: 3}
	for i := int64(0); i < guard.QuarantineScore; i++ {
		if err := runByzContact(t, v, adv, 0, i+1); err == nil {
			t.Fatalf("attack %d succeeded", i)
		}
	}
	// The journal must hold a quarantine record, or the reopen below has
	// nothing to skip.
	if st := v.GuardStats(); st.QuarantineEvents != 1 {
		t.Fatalf("guard stats = %+v, want one quarantine journaled", st)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v2, err := Open(dir, 1, m, 64*mb, WithSeed(101), fixedClock(1000))
	if err != nil {
		t.Fatalf("unguarded reopen over guard records: %v", err)
	}
	defer func() { _ = v2.Close() }()
	if v2.GuardEnabled() {
		t.Fatal("guard armed without WithGuard")
	}
	if len(v2.Photos()) != 1 {
		t.Fatalf("recovered %d photos, want 1", len(v2.Photos()))
	}
}

// TestGuardDisabledNoOp pins the strict no-op contract: a peer without
// WithGuard behaves identically to one with it on honest traffic (same
// digests), reports no guard state, and still aborts adversarial contacts
// under the pre-guard §III-D rule with nothing applied.
func TestGuardDisabledNoOp(t *testing.T) {
	plainDigest, plainIDs := byzBaseline(t, WithFrameTimeout(byzFrameTimeout))
	guardDigest, guardIDs := byzBaseline(t, byzGuardOpts()...)
	if plainDigest != guardDigest {
		t.Fatalf("guard changed honest outcome: %x vs %x", guardDigest, plainDigest)
	}
	if len(plainIDs) != len(guardIDs) {
		t.Fatalf("guard changed delivery: %v vs %v", guardIDs, plainIDs)
	}
	for i := range plainIDs {
		if plainIDs[i] != guardIDs[i] {
			t.Fatalf("guard changed delivery: %v vs %v", guardIDs, plainIDs)
		}
	}

	// Adversaries against an unguarded peer: contacts still abort (decode
	// and turn-order checks predate the guard) and still apply nothing.
	v, _ := byzFixture(t, WithFrameTimeout(byzFrameTimeout))
	pre := v.StateDigest()
	for i, strat := range faults.ByzStrategies() {
		adv := &faults.ByzantinePeer{Node: byzNode, Strategy: strat, Time: 1000, Seed: int64(i)}
		if err := runByzContact(t, v, adv, 0, int64(i)); err == nil {
			t.Fatalf("%v against unguarded peer succeeded", strat)
		}
	}
	if got := v.StateDigest(); got != pre {
		t.Fatalf("unguarded digest moved: %x, want %x", got, pre)
	}
	if v.GuardEnabled() {
		t.Fatal("GuardEnabled without WithGuard")
	}
	if st := v.GuardStats(); st.Violations != 0 || st.Quarantined != 0 {
		t.Fatalf("disabled guard reported stats %+v", st)
	}
}

// TestByzantineMemoryBounded pins the resource property: absurd size claims
// and poisoned metadata, hammered repeatedly, must not balloon the honest
// node's heap — the claims are rejected before any claim-proportional
// allocation.
func TestByzantineMemoryBounded(t *testing.T) {
	v, _ := byzFixture(t, byzGuardOpts()...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		strat := faults.ByzOversizedClaim
		if i%2 == 1 {
			strat = faults.ByzPoisonedMetadata
		}
		adv := &faults.ByzantinePeer{Node: model.NodeID(50 + i), Strategy: strat, Time: 1000, Seed: int64(i)}
		if err := runByzContact(t, v, adv, 0, int64(i)); err == nil {
			t.Fatalf("attack %d succeeded", i)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	const bound = 16 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > bound {
		t.Fatalf("heap grew %d bytes over 20 hostile contacts (bound %d)", grew, bound)
	}
}

// TestGuardSentinelClassification pins the error taxonomy: every guard
// sentinel classifies as ErrContactRejected (never retried) while staying
// matchable itself, and ErrProtocolViolation remains an ErrProtocol.
func TestGuardSentinelClassification(t *testing.T) {
	if !errors.Is(ErrProtocolViolation, ErrProtocol) {
		t.Fatal("ErrProtocolViolation must wrap ErrProtocol")
	}
	for _, sentinel := range []error{ErrProtocolViolation, ErrPeerQuarantined, ErrRateLimited} {
		wrapped := fmt.Errorf("contact aborted: %w", sentinel)
		got := classifyContactErr(wrapped)
		if !errors.Is(got, ErrContactRejected) {
			t.Fatalf("classify(%v) = %v, not ErrContactRejected", sentinel, got)
		}
		if !errors.Is(got, sentinel) {
			t.Fatalf("classify(%v) = %v, lost the sentinel", sentinel, got)
		}
		if transient(got) {
			t.Fatalf("%v classified as transient — a hostile peer would be retried", sentinel)
		}
	}
}

// cancelOnClose cancels a context when the dialled connection closes —
// which contactOnce does (deferred) before DialContext inspects ctx, so the
// cancellation deterministically lands on the errors.Join path.
type cancelOnClose struct {
	net.Conn
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	c.cancel()
	return c.Conn.Close()
}

// TestGuardSentinelThroughDialJoin pins errors.Is through DialContext's
// errors.Join wrapping: a contact that dies on a guard sentinel under a
// context cancelled before DialContext returns must match BOTH the
// cancellation and the sentinel.
func TestGuardSentinelThroughDialJoin(t *testing.T) {
	m := poiMap()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ca, cb := net.Pipe()
	remote := newTestPeer(t, byzNode, m, 8*mb, WithFrameTimeout(byzFrameTimeout))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = remote.ContactConn(cb, false)
		_ = cb.Close()
	}()

	p := newTestPeer(t, 1, m, 8*mb,
		WithGuard(guard.Config{}),
		WithFrameTimeout(byzFrameTimeout),
		WithContextDialer(func(context.Context, string) (net.Conn, error) {
			return &cancelOnClose{Conn: ca, cancel: cancel}, nil
		}))
	// Pre-quarantine the remote: the contact will negotiate, then die at
	// admission with ErrPeerQuarantined.
	p.guard.RestoreQuarantine(byzNode, 1e9, 1000)

	err := p.DialContext(ctx, "remote")
	wg.Wait()
	if err == nil {
		t.Fatal("dial to quarantined remote succeeded")
	}
	if !errors.Is(err, ErrPeerQuarantined) {
		t.Fatalf("err = %v, want ErrPeerQuarantined through errors.Join", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled through errors.Join", err)
	}
}

// TestByzantineStrategyReasons pins the guard reason each violating
// strategy trips on a clean link, so opening the metadata round with a
// summary leaves every attack meeting the check it targets.
func TestByzantineStrategyReasons(t *testing.T) {
	want := map[faults.ByzStrategy]guard.Reason{
		faults.ByzAbsurdClaim:      guard.ReasonBadProphet,
		faults.ByzPoisonedMetadata: guard.ReasonBadTimestamp,
		faults.ByzReplay:           guard.ReasonReplay,
		faults.ByzOversizedClaim:   guard.ReasonOversized,
		faults.ByzPhaseDesync:      guard.ReasonPhase,
		faults.ByzUnrequestedChunk: guard.ReasonBadTransfer,
		faults.ByzMalformedSummary: guard.ReasonReplay,
		faults.ByzReplayedRound:    guard.ReasonPhase,
		faults.ByzTransferDesync:   guard.ReasonPhase,
	}
	for strat, reason := range want {
		v, _ := byzFixture(t, byzGuardOpts()...)
		err := runByzContact(t, v, &faults.ByzantinePeer{Node: byzNode, Strategy: strat, Time: 1000, Seed: 3}, 0, 1)
		var viol *guard.Violation
		if !errors.As(err, &viol) || viol.Reason != reason {
			t.Fatalf("%v: err = %v, want a %v violation", strat, err, reason)
		}
	}
}

// lieToHonest runs one contact of a lying adversary against a guarded
// node that has uploaded to the command center and learned a third node's
// snapshot. It requires the adversary's own view to find nothing sent past
// the lie, the honest side to abort without a violation, and the honest
// state not to move. It returns how far a named counter of the honest node
// moved during the contact, and the node's valid entries and ledger photos
// going in.
func lieToHonest(t *testing.T, strat faults.ByzStrategy) (moved func(counter string) int64, valid, ledger int) {
	t.Helper()
	o := obs.New(0, nil)
	v, cc := byzFixture(t, append(byzGuardOpts(), WithObserver(o))...)
	third := newTestPeer(t, 2, poiMap(), 64*mb, byzGuardOpts()...)
	if err := third.AddPhoto(viewFrom(2, 0, 200)); err != nil {
		t.Fatal(err)
	}
	contact(t, v, cc)
	contact(t, third, v)
	valid = len(v.cache.ValidEntries(1000))
	ccEntry, _ := v.cache.Get(model.CommandCenter)
	ledger = len(ccEntry.Photos)
	if valid < 2 || ledger == 0 {
		t.Fatalf("fixture caches %d valid entries and %d ledger photos, want the command center with photos and node 2", valid, ledger)
	}
	before := make(map[string]int64)
	for _, name := range []string{"metadata.entries_sent", "metadata.entries_withheld", "metadata.ack_photos_withheld"} {
		before[name] = o.Counter(name).Value()
	}
	pre := v.StateDigest()

	ca, cb := net.Pipe()
	advErr := make(chan error, 1)
	go func() {
		advErr <- (&faults.ByzantinePeer{Node: byzNode, Strategy: strat, Time: 1000, Seed: 9}).Contact(ca)
	}()
	err := v.ContactConn(cb, false)
	_ = cb.Close()
	if aerr := <-advErr; aerr != nil {
		t.Fatalf("adversary's view: %v", aerr)
	}
	var viol *guard.Violation
	if err == nil || errors.As(err, &viol) {
		t.Fatalf("honest side err = %v, want an abort that is no violation", err)
	}
	if got := v.StateDigest(); got != pre {
		t.Fatalf("%v moved honest state: digest %x, want %x", strat, got, pre)
	}
	return func(counter string) int64 { return o.Counter(counter).Value() - before[counter] }, valid, ledger
}

// TestLyingSummaryStarvesOnlyTheLiar: an adversary claiming every node at
// the session time gets the honest node's self entry and the command
// center's (a union no stamp covers) and nothing else, trips no check, and
// leaves the honest node's state where it was.
func TestLyingSummaryStarvesOnlyTheLiar(t *testing.T) {
	moved, valid, _ := lieToHonest(t, faults.ByzLyingSummary)
	if s, w := moved("metadata.entries_sent"), moved("metadata.entries_withheld"); s != 2 || w != int64(valid-1) {
		t.Fatalf("sent %d, withheld %d; want the self and command-center entries and the other %d withheld", s, w, valid-1)
	}
}

// TestLyingDeliveredStarvesOnlyTheLiar: an adversary claiming an ack ledger
// of every photo gets the honest node's command-center entry as a bare
// header, every ledger photo counted withheld, trips no check, and leaves
// the honest node's state where it was.
func TestLyingDeliveredStarvesOnlyTheLiar(t *testing.T) {
	moved, valid, ledger := lieToHonest(t, faults.ByzLyingDelivered)
	if s := moved("metadata.entries_sent"); s != int64(valid)+1 {
		t.Fatalf("sent %d entries, want every valid entry and the self entry (%d)", s, valid+1)
	}
	if w := moved("metadata.ack_photos_withheld"); w != int64(ledger) {
		t.Fatalf("withheld %d ledger photos, want all %d", w, ledger)
	}
}
