package peer

import (
	"bytes"
	"errors"
	"net"
	"sort"
	"sync"
	"testing"

	"photodtn/internal/faults"
	"photodtn/internal/guard"
	"photodtn/internal/model"
	"photodtn/internal/obs"
	"photodtn/internal/wire"
)

// tickClock is a settable logical clock shared by every peer of a durability
// scenario: the chaos harness replays rounds at identical timestamps so a
// recovered run is bit-comparable to an uninterrupted one.
type tickClock struct {
	mu  sync.Mutex
	now float64
}

func (c *tickClock) read() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *tickClock) set(v float64) {
	c.mu.Lock()
	c.now = v
	c.mu.Unlock()
}

// tryContact runs one contact over a pipe and returns both sides' errors —
// the chaos harness expects the victim side to die mid-contact. Each side
// closes its own end when done so the survivor unblocks promptly.
func tryContact(a, b *Peer) (errA, errB error) {
	ca, cb := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		errA = a.ContactConn(ca, true)
		_ = ca.Close()
	}()
	go func() {
		defer wg.Done()
		errB = b.ContactConn(cb, false)
		_ = cb.Close()
	}()
	wg.Wait()
	return errA, errB
}

const chaosVictim = model.NodeID(9)

func chaosPhoto(r int) model.Photo {
	return viewFrom(chaosVictim, uint32(r), float64(r)*33)
}

func chaosRoundTime(r int) float64 { return 1000 + 10*float64(r) }

// runReferenceDelivery runs the delivery scenario on a memory-only victim
// with no faults: per round, capture one photo and contact the command
// center. It returns the victim's final state digest and the command
// center's delivered photo IDs — the ground truth every chaos run must
// reproduce.
func runReferenceDelivery(t *testing.T, rounds int) (uint64, []model.PhotoID) {
	t.Helper()
	m := poiMap()
	clk := &tickClock{}
	cc := New(model.CommandCenter, m, 0, WithSeed(1), WithClock(clk.read))
	v := New(chaosVictim, m, 64*mb, WithSeed(2), WithClock(clk.read))
	for r := 0; r < rounds; r++ {
		clk.set(chaosRoundTime(r))
		if err := v.AddPhoto(chaosPhoto(r)); err != nil {
			t.Fatalf("reference round %d: %v", r, err)
		}
		if errV, errCC := tryContact(v, cc); errV != nil || errCC != nil {
			t.Fatalf("reference round %d: victim %v, cc %v", r, errV, errCC)
		}
	}
	return v.StateDigest(), sortedIDs(cc.Photos())
}

func sortedIDs(l model.PhotoList) []model.PhotoID {
	ids := l.IDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// chaosResult is what one chaos run reports back to the sweep.
type chaosResult struct {
	digest    uint64
	ccIDs     []model.PhotoID
	ops       int   // mutating disk ops the injector saw (== killOp when it fired)
	restarts  int   // crash-restarts the run needed
	replayed  int   // journal records replayed across restarts
	truncated int64 // torn-tail bytes recovery cut across restarts
	commits   uint64
}

// runChaosDelivery runs the delivery scenario on a durable victim whose
// disk dies at the killOp-th mutating operation (torn selects a torn final
// write). The command center stays up across the victim's restarts, exactly
// like the rest of a DTN would. The run drives rounds by the victim's
// durable commit count, so a round whose commit was lost is re-run and a
// round whose commit survived is not — exactly-once from the journal's
// point of view.
func runChaosDelivery(t *testing.T, rounds, killOp int, torn bool) chaosResult {
	t.Helper()
	m := poiMap()
	clk := &tickClock{}
	dir := t.TempDir()
	cc := New(model.CommandCenter, m, 0, WithSeed(1), WithClock(clk.read))
	inj := faults.NewDiskInjector(faults.DiskConfig{FailAtOp: killOp, TornWrite: torn}, nil)

	res := chaosResult{}
	baseOpts := func() []Option {
		return []Option{WithSeed(2), WithClock(clk.read), WithSnapshotEvery(2)}
	}
	open := func(extra ...Option) (*Peer, error) {
		return Open(dir, chaosVictim, m, 64*mb, append(baseOpts(), extra...)...)
	}

	v, err := open(WithJournalFS(inj))
	if err != nil {
		// Killed during the first open — restart on a healthy disk.
		res.restarts++
		if v, err = open(); err != nil {
			t.Fatalf("kill op %d: recovery after open crash: %v", killOp, err)
		}
	}
	restart := func(cause error) {
		res.restarts++
		if res.restarts > 3 {
			t.Fatalf("kill op %d: not converging: %v", killOp, cause)
		}
		if !errors.Is(cause, ErrJournal) {
			t.Fatalf("kill op %d: crash surfaced as %v, want ErrJournal in the chain", killOp, cause)
		}
		_ = v.Close()
		var rerr error
		if v, rerr = open(); rerr != nil {
			t.Fatalf("kill op %d: recovery failed: %v", killOp, rerr)
		}
		st := v.JournalStats()
		res.replayed += st.RecordsReplayed
		res.truncated += st.TruncatedBytes
	}

	for {
		r := int(v.JournalStats().Commits)
		if r >= rounds {
			break
		}
		clk.set(chaosRoundTime(r))
		if ph := chaosPhoto(r); !v.Photos().Contains(ph.ID) {
			if err := v.AddPhoto(ph); err != nil {
				restart(err)
				continue
			}
		}
		errV, errCC := tryContact(v, cc)
		if errV != nil {
			restart(errV)
			continue
		}
		if errCC != nil {
			t.Fatalf("kill op %d round %d: victim fine but command center failed: %v", killOp, r, errCC)
		}
	}

	res.digest = v.StateDigest()
	if err := v.Close(); err != nil {
		t.Fatalf("kill op %d: close: %v", killOp, err)
	}
	// A final recovery from disk must reproduce the live state exactly.
	v2, err := open()
	if err != nil {
		t.Fatalf("kill op %d: final recovery: %v", killOp, err)
	}
	defer func() { _ = v2.Close() }()
	if got := v2.StateDigest(); got != res.digest {
		t.Fatalf("kill op %d: recovered digest %x, live digest %x", killOp, got, res.digest)
	}
	res.ccIDs = sortedIDs(cc.Photos())
	res.ops = inj.Ops()
	res.commits = v2.JournalStats().Commits
	return res
}

func equalIDs(a, b []model.PhotoID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChaosKillSweepConverges is the crash-recovery chaos harness: it kills
// the victim's disk at every distinct mutating operation of the write
// sequence (clean kills and torn final writes), restarts it from disk, and
// requires every run to converge to the reference run bit-for-bit — same
// victim state digest, same delivered set at the command center, no photo
// delivered twice, no commit double-counted.
func TestChaosKillSweepConverges(t *testing.T) {
	const rounds = 4
	wantDigest, wantCC := runReferenceDelivery(t, rounds)
	if len(wantCC) != rounds {
		t.Fatalf("reference delivered %d photos, want %d", len(wantCC), rounds)
	}

	for _, torn := range []bool{false, true} {
		crashed, truncated := 0, int64(0)
		for killOp := 1; ; killOp++ {
			res := runChaosDelivery(t, rounds, killOp, torn)
			if res.digest != wantDigest {
				t.Fatalf("kill op %d (torn=%v): digest %x, want %x", killOp, torn, res.digest, wantDigest)
			}
			if !equalIDs(res.ccIDs, wantCC) {
				t.Fatalf("kill op %d (torn=%v): delivered %v, want %v", killOp, torn, res.ccIDs, wantCC)
			}
			if res.commits != rounds {
				t.Fatalf("kill op %d (torn=%v): %d durable commits, want %d", killOp, torn, res.commits, rounds)
			}
			if res.ops < killOp {
				// The kill never fired: this run exercised the full write
				// sequence, so the sweep is complete.
				if res.restarts != 0 {
					t.Fatalf("clean run restarted %d times", res.restarts)
				}
				break
			}
			crashed++
			truncated += res.truncated
		}
		if crashed == 0 {
			t.Fatalf("torn=%v sweep never crashed — injector miswired", torn)
		}
		if torn && truncated == 0 {
			t.Fatal("torn sweep never exercised tail truncation")
		}
	}
}

// TestDurablePeerRestartPreservesReallocationState pins the peer↔peer path:
// a reallocation's ReplaceAll must survive a restart exactly.
func TestDurablePeerRestartPreservesReallocationState(t *testing.T) {
	m := poiMap()
	dir := t.TempDir()
	v, err := Open(dir, 1, m, 12*mb, WithSeed(101), fixedClock(1000))
	if err != nil {
		t.Fatal(err)
	}
	b := newTestPeer(t, 2, m, 12*mb)
	for i := uint32(0); i < 3; i++ {
		if err := v.AddPhoto(viewFrom(1, i, float64(i)*40)); err != nil {
			t.Fatal(err)
		}
		if err := b.AddPhoto(viewFrom(2, i, float64(i)*40+120)); err != nil {
			t.Fatal(err)
		}
	}
	contact(t, v, b)

	digest := v.StateDigest()
	photos := sortedIDs(v.Photos())
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	v2, err := Open(dir, 1, m, 12*mb, WithSeed(101), fixedClock(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = v2.Close() }()
	if got := v2.StateDigest(); got != digest {
		t.Fatalf("recovered digest %x, want %x", got, digest)
	}
	if got := sortedIDs(v2.Photos()); !equalIDs(got, photos) {
		t.Fatalf("recovered photos %v, want %v", got, photos)
	}
	st := v2.JournalStats()
	if !st.Recovered || st.Commits != 1 {
		t.Fatalf("stats = %+v, want recovered with 1 commit", st)
	}
	// The recovered peer must not re-request photos it already holds: a
	// second contact with an unchanged partner moves nothing and leaves
	// both collections exactly as they were.
	before := sortedIDs(b.Photos())
	contact(t, v2, b)
	if got := sortedIDs(v2.Photos()); !equalIDs(got, photos) {
		t.Fatalf("photos changed across idempotent contact: %v, want %v", got, photos)
	}
	if got := sortedIDs(b.Photos()); !equalIDs(got, before) {
		t.Fatalf("partner photos changed across idempotent contact: %v, want %v", got, before)
	}
}

// TestJournalFailurePoisonsPeer: once the disk dies the peer must refuse
// every further mutation with an ErrJournal-wrapped error instead of
// drifting away from its durable state.
func TestJournalFailurePoisonsPeer(t *testing.T) {
	m := poiMap()
	// Op 1 opens the WAL; op 2 is the first record's write.
	inj := faults.NewDiskInjector(faults.DiskConfig{FailAtOp: 2}, nil)
	v, err := Open(t.TempDir(), 1, m, 8*mb, WithSeed(7), fixedClock(1000), WithJournalFS(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = v.Close() }()

	err = v.AddPhoto(viewFrom(1, 0, 0))
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("AddPhoto on dead disk = %v, want ErrJournal", err)
	}
	if n := len(v.Photos()); n != 0 {
		t.Fatalf("rolled-back admission left %d photos in memory", n)
	}
	if err := v.AddPhoto(viewFrom(1, 1, 10)); !errors.Is(err, ErrJournal) {
		t.Fatalf("poisoned AddPhoto = %v, want ErrJournal", err)
	}
	cc := New(model.CommandCenter, m, 0, WithSeed(8), fixedClock(1000))
	if errV, _ := tryContact(v, cc); !errors.Is(errV, ErrJournal) {
		t.Fatalf("poisoned contact = %v, want ErrJournal", errV)
	}
}

// TestClosedDurablePeerRefusesMutation: after Close nothing a durable peer
// does can reach its journal, so it must refuse every mutation — photo
// capture, contacts, resumable chunks, checkpoints — rather than drift in
// memory away from the state a reopen recovers.
func TestClosedDurablePeerRefusesMutation(t *testing.T) {
	m := poiMap()
	dir := t.TempDir()
	v, err := Open(dir, 1, m, 8*mb, WithSeed(7), fixedClock(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.AddPhoto(viewFrom(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	want := v.StateDigest()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	if err := v.AddPhoto(viewFrom(1, 1, 10)); !errors.Is(err, ErrJournal) {
		t.Fatalf("AddPhoto after Close = %v, want ErrJournal", err)
	}
	cc := New(model.CommandCenter, m, 0, WithSeed(8), fixedClock(1000))
	if errV, _ := tryContact(v, cc); !errors.Is(errV, ErrJournal) {
		t.Fatalf("contact after Close = %v, want ErrJournal", errV)
	}
	chunk := wire.Chunk{Photo: viewFrom(5, 0, 45), Index: 0, Count: 2, ChunkSize: 4, Total: 8, Data: []byte{1, 2, 3, 4}}
	if _, err := v.addFragments(nil, []wire.Chunk{chunk}); !errors.Is(err, ErrJournal) {
		t.Fatalf("resumable chunk after Close = %v, want ErrJournal", err)
	}
	if err := v.Checkpoint(); !errors.Is(err, ErrJournal) {
		t.Fatalf("Checkpoint after Close = %v, want ErrJournal", err)
	}
	if st := v.JournalStats(); st.Commits != 0 {
		t.Fatalf("closed peer counted %d commits", st.Commits)
	}
	if got := v.StateDigest(); got != want {
		t.Fatalf("closed peer's digest moved: %x, want %x", got, want)
	}
	if err := v.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}

	r, err := Open(dir, 1, m, 8*mb, WithSeed(7), fixedClock(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if got := r.StateDigest(); got != want {
		t.Fatalf("reopened digest %x, want %x", got, want)
	}
}

// TestRecoveryObservability: a recovery surfaces through the journal
// counters and an EvPeerRecovery trace event.
func TestRecoveryObservability(t *testing.T) {
	m := poiMap()
	dir := t.TempDir()
	cc := New(model.CommandCenter, m, 0, WithSeed(1), fixedClock(1000))
	v, err := Open(dir, 3, m, 8*mb, WithSeed(2), fixedClock(1000), WithObserver(obs.New(0, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.AddPhoto(viewFrom(3, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if errV, errCC := tryContact(v, cc); errV != nil || errCC != nil {
		t.Fatalf("contact: victim %v, cc %v", errV, errCC)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	o := obs.New(0, nil)
	v2, err := Open(dir, 3, m, 8*mb, WithSeed(2), fixedClock(1000), WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = v2.Close() }()
	if got := o.Counter("journal.recoveries").Value(); got != 1 {
		t.Fatalf("journal.recoveries = %d, want 1", got)
	}
	// One photo admission plus one contact commit were replayed.
	if got := o.Counter("journal.records_replayed").Value(); got != 2 {
		t.Fatalf("journal.records_replayed = %d, want 2", got)
	}
	if got := o.Counter("journal.truncated_bytes").Value(); got != 0 {
		t.Fatalf("journal.truncated_bytes = %d, want 0 for a clean shutdown", got)
	}
	events := o.Trace.Events()
	var recovery *obs.Event
	for i := range events {
		if events[i].Kind == obs.EvPeerRecovery {
			recovery = &events[i]
		}
	}
	if recovery == nil {
		t.Fatalf("no EvPeerRecovery in trace (%d events)", len(events))
	}
	if recovery.A != 3 || recovery.Value != 2 {
		t.Fatalf("recovery event = %+v, want A=3 Value=2", *recovery)
	}
}

// TestCheckpointCompactsPeerJournal: a checkpoint folds the log into the
// snapshot without changing the recovered state.
func TestCheckpointCompactsPeerJournal(t *testing.T) {
	m := poiMap()
	dir := t.TempDir()
	cc := New(model.CommandCenter, m, 0, WithSeed(1), fixedClock(1000))
	v, err := Open(dir, 4, m, 8*mb, WithSeed(2), fixedClock(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.AddPhoto(viewFrom(4, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if errV, errCC := tryContact(v, cc); errV != nil || errCC != nil {
		t.Fatalf("contact: victim %v, cc %v", errV, errCC)
	}
	digest := v.StateDigest()
	if err := v.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	v2, err := Open(dir, 4, m, 8*mb, WithSeed(2), fixedClock(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = v2.Close() }()
	st := v2.JournalStats()
	if st.RecordsReplayed != 0 {
		t.Fatalf("replayed %d records after checkpoint, want 0", st.RecordsReplayed)
	}
	if st.Commits != 1 {
		t.Fatalf("commits = %d, want 1", st.Commits)
	}
	if got := v2.StateDigest(); got != digest {
		t.Fatalf("recovered digest %x, want %x", got, digest)
	}
}

// TestRestoreSnapshotVersions pins that restore reads exactly the version
// this build writes: a current image round-trips with its fragments and
// quarantines, and every other version is refused. The older images are
// the current encoding trimmed to what their version carried — version 1
// lacked the fragment and quarantine sections, version 2 the quarantines.
func TestRestoreSnapshotVersions(t *testing.T) {
	m := poiMap()
	opts := []Option{WithGuard(guard.Config{}), fixedClock(1000)}
	p := newTestPeer(t, 1, m, 64*mb, opts...)
	q := newTestPeer(t, 2, m, 64*mb, opts...)
	for i := uint32(0); i < 2; i++ {
		if err := p.AddPhoto(viewFrom(1, i, float64(i)*60)); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.AddPhoto(viewFrom(2, 0, 90)); err != nil {
		t.Fatal(err)
	}
	contact(t, p, q) // metadata cache, PROPHET table, contact rates
	if _, err := p.frags.Add(wire.Chunk{
		Photo: viewFrom(5, 0, 45), Index: 0, Count: 2, ChunkSize: 4, Total: 8, Data: []byte{1, 2, 3, 4},
	}); err != nil {
		t.Fatal(err)
	}
	p.guard.RestoreQuarantine(42, 1e6, 1000)

	p.mu.Lock()
	p.commits = 7
	image := p.encodeSnapshot()
	p.mu.Unlock()

	r := newTestPeer(t, 1, m, 64*mb, opts...)
	if err := r.restoreSnapshot(image); err != nil {
		t.Fatalf("version %d: %v", peerSnapVersion, err)
	}
	if got, want := r.StateDigest(), p.StateDigest(); got != want {
		t.Fatalf("version %d: digest %x, want %x", peerSnapVersion, got, want)
	}
	if got := r.TransferStats().Partials; got != 1 {
		t.Fatalf("version %d: %d partials, want 1", peerSnapVersion, got)
	}
	if got := r.GuardStats().Quarantined; got != 1 {
		t.Fatalf("version %d: %d quarantined, want 1", peerSnapVersion, got)
	}
	if got := r.JournalStats().Commits; got != 7 {
		t.Fatalf("version %d: %d commits, want 7", peerSnapVersion, got)
	}
	r.mu.Lock()
	again := r.encodeSnapshot()
	r.mu.Unlock()
	if !bytes.Equal(again, image) {
		t.Fatalf("version %d: restored peer encodes %d bytes that differ from the %d-byte image", peerSnapVersion, len(again), len(image))
	}

	withVersion := func(ver byte) []byte {
		img := append([]byte(nil), image...)
		img[0] = ver
		return img
	}
	for name, img := range map[string][]byte{
		"version 0":           withVersion(0),
		"version 1":           withVersion(1),
		"version 2":           withVersion(2),
		"version 3":           withVersion(3),
		"version 5":           withVersion(peerSnapVersion + 1),
		"cut in the header":   image[:5],
		"cut inside a record": image[:len(image)-3],
		"unknown record type": appendOp(append([]byte(nil), image...), 99, nil),
	} {
		r := newTestPeer(t, 1, m, 64*mb, opts...)
		if err := r.restoreSnapshot(img); err == nil {
			t.Fatalf("%s: image restored", name)
		}
	}
}

// TestFreshDurablePeerMatchesMemoryPeer: journaling must not change
// behaviour — a fresh durable peer and a memory peer fed the same inputs
// end in the same state.
func TestFreshDurablePeerMatchesMemoryPeer(t *testing.T) {
	m := poiMap()
	mem := New(5, m, 8*mb, WithSeed(2), fixedClock(1000))
	dur, err := Open(t.TempDir(), 5, m, 8*mb, WithSeed(2), fixedClock(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dur.Close() }()
	for _, v := range []*Peer{mem, dur} {
		cc := New(model.CommandCenter, m, 0, WithSeed(1), fixedClock(1000))
		if err := v.AddPhoto(viewFrom(5, 0, 0)); err != nil {
			t.Fatal(err)
		}
		if errV, errCC := tryContact(v, cc); errV != nil || errCC != nil {
			t.Fatalf("contact: victim %v, cc %v", errV, errCC)
		}
	}
	if mem.StateDigest() != dur.StateDigest() {
		t.Fatalf("digest mismatch: memory %x, durable %x", mem.StateDigest(), dur.StateDigest())
	}
	st := dur.JournalStats()
	if !st.Enabled || st.Recovered {
		t.Fatalf("stats = %+v, want enabled and fresh", st)
	}
}
