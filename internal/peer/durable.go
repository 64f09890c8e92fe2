package peer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"

	"photodtn/internal/coverage"
	"photodtn/internal/journal"
	"photodtn/internal/metadata"
	"photodtn/internal/model"
	"photodtn/internal/obs"
	"photodtn/internal/transfer"
	"photodtn/internal/wire"
)

// ErrJournal reports that the peer's durable state is broken: the journal
// could not be opened or recovered, or a commit append failed mid-life. A
// peer in this state refuses every mutating operation — continuing in
// memory while the disk silently diverges is exactly the failure mode a
// write-ahead log exists to prevent. The wrapped cause is in the chain.
var ErrJournal = errors.New("peer: journal unavailable")

// DefaultSnapshotEvery is how many committed contacts a peer journals
// before compacting the log into an atomic snapshot.
const DefaultSnapshotEvery = 32

// WithJournal makes the peer durable: all state the contact protocol
// depends on — the photo store, the metadata cache, PROPHET delivery
// predictabilities, the learned contact rate, and delivery
// acknowledgements — is journaled to dir and recovered on the next
// construction with the same dir. Recovery failures are sticky: the peer
// is created but every mutating call returns ErrJournal (use Open to get
// the error directly).
func WithJournal(dir string) Option {
	return optionFunc(func(p *Peer) { p.stateDir = dir })
}

// WithJournalFS overrides the filesystem the journal writes through
// (fault-injection tests plug a faults.DiskInjector in here). It only has
// an effect together with WithJournal.
func WithJournalFS(fs journal.FS) Option {
	return optionFunc(func(p *Peer) { p.jfs = fs })
}

// WithSnapshotEvery overrides how many committed contacts trigger a
// snapshot + log compaction (default DefaultSnapshotEvery; v < 1 disables
// automatic snapshots — the log grows until Checkpoint is called).
func WithSnapshotEvery(v int) Option {
	return optionFunc(func(p *Peer) { p.snapEvery = v })
}

// Open creates a durable peer rooted at dir, recovering any state a
// previous incarnation journaled there. It is New with WithJournal(dir)
// plus explicit recovery error reporting.
func Open(dir string, id model.NodeID, m *coverage.Map, capacity int64, opts ...Option) (*Peer, error) {
	p := New(id, m, capacity, append([]Option{WithJournal(dir)}, opts...)...)
	if err := p.JournalError(); err != nil {
		return nil, err
	}
	return p, nil
}

// JournalError returns the sticky journal failure, if any (nil for
// memory-only peers and healthy durable peers).
func (p *Peer) JournalError() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.journalErr
}

// JournalStats describes a durable peer's recovery and commit history.
type JournalStats struct {
	// Enabled reports whether the peer journals at all.
	Enabled bool
	// Recovered reports whether the last Open found prior state on disk.
	Recovered bool
	// Commits is the number of durably committed contacts, including
	// those recovered from disk.
	Commits uint64
	// RecordsReplayed is the number of journal records replayed on top of
	// the snapshot during recovery.
	RecordsReplayed int
	// TruncatedBytes is the torn/corrupt tail recovery cut from the log.
	TruncatedBytes int64
}

// JournalStats returns the peer's durability statistics (zero for
// memory-only peers).
func (p *Peer) JournalStats() JournalStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := JournalStats{Commits: p.commits}
	if p.jnl == nil {
		s.Enabled = p.stateDir != ""
		return s
	}
	js := p.jnl.Stats()
	s.Enabled = true
	s.Recovered = js.Recovered
	s.RecordsReplayed = js.Records
	s.TruncatedBytes = js.TruncatedBytes
	return s
}

// Checkpoint forces a snapshot + log compaction now (also done
// automatically every WithSnapshotEvery commits). It is a no-op for
// memory-only peers.
func (p *Peer) Checkpoint() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.jnl == nil {
		return p.journalErr
	}
	return p.checkpointLocked()
}

// Close releases the journal handle (the state stays recoverable on
// disk). From then on a durable peer refuses every mutation with
// ErrJournal, since nothing it did could be made durable; a second Close
// returns nil. Memory-only peers close trivially.
func (p *Peer) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.jnl == nil {
		return nil
	}
	err := p.jnl.Close()
	p.jnl = nil
	if p.journalErr == nil {
		p.journalErr = fmt.Errorf("%w: closed", ErrJournal)
	}
	return err
}

// StateDigest returns an order-insensitive FNV-1a digest of the protocol
// state a restart must preserve: the photo collection, the metadata cache,
// the PROPHET table, and the learned contact rates. Two peers with equal
// digests hold the same photos, believe the same snapshots, and advertise
// the same probabilities — the recovery invariant the chaos harness pins.
func (p *Peer) StateDigest() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := fnv.New64a()
	buf := make([]byte, 0, 4096)

	photos := p.store.List()
	sort.Slice(photos, func(i, j int) bool { return photos[i].ID < photos[j].ID })
	buf = photos.AppendBinary(buf)

	entries := p.cache.Entries()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Node))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Lambda))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.P))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Timestamp))
		ids := e.Photos.IDs()
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
		for _, id := range ids {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
		}
	}

	buf = p.appendEncounterState(buf)

	_, _ = h.Write(buf)
	return h.Sum64()
}

// appendEncounterState appends what encounters teach a peer — the PROPHET
// table and the contact-rate estimator — in node order. The snapshot and
// the state digest share this encoding.
func (p *Peer) appendEncounterState(buf []byte) []byte {
	table := p.table.Snapshot()
	dsts := make([]model.NodeID, 0, len(table))
	for dst := range table {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.table.LastAged()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dsts)))
	for _, dst := range dsts {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(dst))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(table[dst]))
	}

	rs := p.rate.Snapshot()
	peers := make([]model.NodeID, 0, len(rs.PerPeer))
	for peer := range rs.PerPeer {
		peers = append(peers, peer)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	if rs.Started {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rs.Start))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(peers)))
	for _, peer := range peers {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(peer))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(rs.PerPeer[peer]))
	}
	return buf
}

// Journal record types.
const (
	// recPhotoAdd journals one locally captured photo (AddPhoto). Its
	// payload is a subStoreAdd's, and replay applies it as one.
	recPhotoAdd byte = 1
	// recContactCommit journals one completed contact as an atomic batch
	// of sub-records — a contact that dies mid-protocol leaves no durable
	// trace, matching the live protocol's discard-unfinished semantics.
	recContactCommit byte = 2
	// recFragment journals transfer-fragment events (chunk resume). They
	// live deliberately OUTSIDE contact atomicity: a chunk that landed in a
	// contact that later aborts is exactly the progress resume exists to
	// save, so each fresh chunk is durable the moment it is accepted. The
	// photo itself still only enters storage via a recContactCommit, which
	// keeps §III-D's photo-level atomicity intact.
	recFragment byte = 3
	// recGuard journals guard events — today only quarantine impositions,
	// so a restarted peer keeps refusing a banned remote for the rest of
	// its TTL. Like fragments they sit outside contact atomicity: the
	// offending contact aborts and journals nothing else, but the ban must
	// survive. Replay with the guard disabled skips them silently.
	recGuard byte = 4
)

// Guard sub-kinds inside a recGuard record.
const (
	// guardQuarantine: one quarantine imposition (payload:
	// [node u32][until f64][reason u8]).
	guardQuarantine byte = 1
)

// Fragment sub-kinds inside a recFragment record.
const (
	// fragPut: one fresh chunk unioned into a partial (payload: the wire
	// chunk body). Replay is idempotent; a replayed chunk whose assembly
	// fails the whole-photo checksum converges to the same drop the live
	// path took.
	fragPut byte = 1
	// fragDrop: a partial released at commit reconciliation (payload: the
	// photo ID), so replay does not resurrect partials whose photo was
	// admitted or delivered.
	fragDrop byte = 2
)

func encodeFragDrop(id model.PhotoID) []byte {
	return binary.LittleEndian.AppendUint64([]byte{fragDrop}, uint64(id))
}

// Sub-record kinds inside a contact commit.
const (
	// subEncounter: rate observation + PROPHET encounter + transitivity
	// with the advertised delivery probability.
	subEncounter byte = 1
	// subMetaPut: one metadata cache Put.
	subMetaPut byte = 2
	// subMetaDrop: DropInvalid at the session time.
	subMetaDrop byte = 3
	// subStoreReplace: the §III-D reallocation's ReplaceAll.
	subStoreReplace byte = 4
	// subStoreAdd: one photo stored (command-center upload receipt).
	subStoreAdd byte = 5
	// subAckDelivered: delivery acknowledgement — photos leave the store
	// and join the command-center cache entry.
	subAckDelivered byte = 6
	// subEncounterState: the PROPHET table and the contact-rate estimator,
	// restored whole (payload: appendEncounterState). Only snapshots write
	// it; sessions never record it.
	subEncounterState byte = 7
)

// openJournal opens/recovers the journal configured by WithJournal. It
// runs at the end of New, after every option and default is in place.
func (p *Peer) openJournal() error {
	j, err := journal.Open(p.stateDir, &journal.Options{FS: p.jfs})
	if err != nil {
		return fmt.Errorf("%w: %w", ErrJournal, err)
	}
	if snap := j.Snapshot(); snap != nil {
		if err := p.restoreSnapshot(snap); err != nil {
			_ = j.Close()
			return fmt.Errorf("%w: restore snapshot: %w", ErrJournal, err)
		}
	}
	for i, rec := range j.Records() {
		if err := p.replayRecord(rec.Type, rec.Payload); err != nil {
			_ = j.Close()
			return fmt.Errorf("%w: replay record %d (seq %d): %w", ErrJournal, i, rec.Seq, err)
		}
	}
	p.jnl = j
	// Replayed fragments may belong to photos the replayed commits already
	// admitted or delivered; settle them the same way a live commit would.
	if err := p.reconcileFragsLocked(); err != nil {
		_ = j.Close()
		p.jnl = nil
		return err
	}
	if st := j.Stats(); st.Recovered {
		p.obsv.Counter("journal.recoveries").Inc()
		p.obsv.Counter("journal.records_replayed").Add(int64(st.Records))
		p.obsv.Counter("journal.truncated_bytes").Add(st.TruncatedBytes)
		p.obsv.Emit(obs.Event{
			Time: p.clock(), Kind: obs.EvPeerRecovery,
			A: int32(p.id), B: obs.NoNode, Photo: obs.NoPhoto,
			Value: float64(st.Records),
		})
	}
	return nil
}

// --- sub-record payload encoders (shared by sessions and replay tests) ---

func encodeEncounter(peer model.NodeID, now, deliveryProb float64) []byte {
	buf := make([]byte, 0, 4+8+8)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(peer))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(now))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(deliveryProb))
	return buf
}

func encodeMetaDrop(now float64) []byte {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(now))
}

func encodeAckDelivered(session float64, acked model.PhotoList) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, math.Float64bits(session))
	return acked.AppendBinary(buf)
}

// reconcileFragsLocked drops tracked partials whose photo no longer needs
// reassembly: admitted to the photo store (the progress paid off) or
// already delivered to the command center per its authoritative snapshot
// (the progress is dead weight — wasted). It runs under the peer lock at
// every contact commit and once after recovery. The drops are journaled,
// in photo-ID order, as one batch before any is applied, so a replay
// converges to the same store.
func (p *Peer) reconcileFragsLocked() error {
	ids := p.frags.IDs()
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	delivered := p.cache.Delivered()
	type drop struct {
		id     model.PhotoID
		wasted bool
	}
	var drops []drop
	for _, id := range ids {
		if p.store.Has(id) {
			drops = append(drops, drop{id: id})
		} else if _, ok := slices.BinarySearch(delivered, id); ok {
			drops = append(drops, drop{id: id, wasted: true})
		}
	}
	if len(drops) == 0 {
		return nil
	}
	if p.jnl != nil {
		entries := make([]journal.Entry, len(drops))
		for i, d := range drops {
			entries[i] = journal.Entry{Type: recFragment, Payload: encodeFragDrop(d.id)}
		}
		if err := p.jnl.AppendBatch(entries...); err != nil {
			p.journalErr = fmt.Errorf("%w: journal fragment drop: %w", ErrJournal, err)
			return p.journalErr
		}
	}
	for _, d := range drops {
		if n := p.frags.Drop(d.id, d.wasted); d.wasted && n > 0 {
			p.cWastedBytes.Add(n)
		}
	}
	return nil
}

// noteCommitLocked does the bookkeeping after a contact commit's journal
// append succeeded (or for a memory-only peer, after its in-memory apply):
// commit counters and the periodic snapshot compaction.
func (p *Peer) noteCommitLocked() error {
	if p.jnl == nil {
		return nil
	}
	p.commits++
	p.sinceSnap++
	p.obsv.Counter("journal.commits").Inc()
	if p.snapEvery > 0 && p.sinceSnap >= p.snapEvery {
		return p.checkpointLocked()
	}
	return nil
}

// checkpointLocked writes an atomic snapshot and compacts the log.
func (p *Peer) checkpointLocked() error {
	if err := p.jnl.Checkpoint(p.encodeSnapshot()); err != nil {
		p.journalErr = fmt.Errorf("%w: checkpoint: %w", ErrJournal, err)
		return p.journalErr
	}
	p.sinceSnap = 0
	p.obsv.Counter("journal.checkpoints").Inc()
	return nil
}

// --- snapshot encoding ---

// peerSnapVersion is the snapshot layout this build writes and the only one
// it restores. Version 4 writes the snapshot as the journal records
// recovery replays; older images are refused, and wire protocol v3 already
// refuses the builds that wrote versions 1 and 2.
const peerSnapVersion = 4

// encodeSnapshot serialises the peer's full protocol state as
// [version][commits u64] followed by framed journal records: one contact
// commit that replaces the store, puts every cache entry and restores the
// encounter state, one fragment put per held chunk, and one quarantine per
// active ban (none when the guard is off — arming it later starts with a
// clean slate, which is the conservative direction). Payloads are appended
// in place behind their frame headers.
func (p *Peer) encodeSnapshot() []byte {
	buf := binary.LittleEndian.AppendUint64([]byte{peerSnapVersion}, p.commits)

	buf, commit := beginOp(buf, recContactCommit)
	buf, op := beginOp(buf, subStoreReplace)
	buf = endOp(p.store.List().AppendBinary(buf), op)
	for _, e := range p.cache.Entries() {
		buf, op = beginOp(buf, subMetaPut)
		buf = endOp(wire.AppendMetaEntry(buf, e), op)
	}
	buf, op = beginOp(buf, subEncounterState)
	buf = endOp(p.appendEncounterState(buf), op)
	buf = endOp(buf, commit)

	for _, c := range p.frags.Held() {
		buf, op = beginOp(buf, recFragment)
		buf = endOp(wire.AppendChunk(append(buf, fragPut), c), op)
	}
	// The guard keeps no reason for an active ban; replay ignores the byte.
	for _, q := range p.guard.ActiveQuarantines(p.clock()) {
		buf = appendOp(buf, recGuard, encodeQuarantine(q.Node, q.Until, 0))
	}
	return buf
}

// restoreSnapshot rebuilds the peer's state from an encodeSnapshot image by
// replaying its records.
func (p *Peer) restoreSnapshot(buf []byte) error {
	if len(buf) < 1+8 {
		return fmt.Errorf("snapshot header: %d bytes", len(buf))
	}
	if ver := buf[0]; ver != peerSnapVersion {
		return fmt.Errorf("snapshot version %d, want %d", ver, peerSnapVersion)
	}
	commits := binary.LittleEndian.Uint64(buf[1:])
	if err := eachOp(buf[9:], p.replayRecord); err != nil {
		return err
	}
	// The contact-commit record counted itself; the header is the truth.
	p.commits = commits
	return nil
}

// --- record replay ---

// replayRecord applies one recovered journal record.
func (p *Peer) replayRecord(typ byte, payload []byte) error {
	switch typ {
	case recPhotoAdd:
		if err := p.peerState.apply(subStoreAdd, payload); err != nil {
			return fmt.Errorf("photo add: %w", err)
		}
		return nil
	case recContactCommit:
		if err := p.peerState.applyOps(payload); err != nil {
			return err
		}
		p.commits++
		return nil
	case recFragment:
		if len(payload) < 1 {
			return errors.New("fragment record: empty")
		}
		sub, body := payload[0], payload[1:]
		switch sub {
		case fragPut:
			c, err := wire.DecodeChunk(body)
			if err != nil {
				return fmt.Errorf("fragment put: %w", err)
			}
			if _, err := p.frags.Add(c); err != nil && !errors.Is(err, transfer.ErrChecksum) {
				return fmt.Errorf("fragment put: %w", err)
			}
			return nil
		case fragDrop:
			if len(body) != 8 {
				return fmt.Errorf("fragment drop: %d bytes", len(body))
			}
			p.frags.Drop(model.PhotoID(binary.LittleEndian.Uint64(body)), false)
			return nil
		default:
			return fmt.Errorf("unknown fragment sub-kind %d", sub)
		}
	case recGuard:
		if len(payload) < 1 {
			return errors.New("guard record: empty")
		}
		sub, body := payload[0], payload[1:]
		switch sub {
		case guardQuarantine:
			if len(body) != 4+8+1 {
				return fmt.Errorf("guard quarantine: %d bytes", len(body))
			}
			if p.guard != nil {
				node := model.NodeID(binary.LittleEndian.Uint32(body))
				until := math.Float64frombits(binary.LittleEndian.Uint64(body[4:]))
				p.guard.RestoreQuarantine(node, until, p.clock())
			}
			return nil
		default:
			return fmt.Errorf("unknown guard sub-kind %d", sub)
		}
	default:
		return fmt.Errorf("unknown record type %d", typ)
	}
}

// appendOp appends one framed record to buf: [kind][payload length
// u32][payload]. Sessions frame their op logs with it, a contact commit
// journals the frames as they are, and a snapshot is a run of such frames.
func appendOp(buf []byte, kind byte, payload []byte) []byte {
	buf, at := beginOp(buf, kind)
	return endOp(append(buf, payload...), at)
}

// beginOp appends a frame header with a zero length and returns where the
// frame starts; the caller appends the payload to buf and calls endOp,
// which patches the length in.
func beginOp(buf []byte, kind byte) ([]byte, int) {
	return append(buf, kind, 0, 0, 0, 0), len(buf)
}

// endOp closes the frame beginOp opened at offset at.
func endOp(buf []byte, at int) []byte {
	binary.LittleEndian.PutUint32(buf[at+1:], uint32(len(buf)-at-5))
	return buf
}

// nextOp splits the first framed record off buf, returning its kind, its
// payload and the frames after it.
func nextOp(buf []byte) (kind byte, payload, rest []byte, err error) {
	if len(buf) < 5 {
		return 0, nil, nil, fmt.Errorf("op header: %d bytes", len(buf))
	}
	kind, n := buf[0], binary.LittleEndian.Uint32(buf[1:])
	buf = buf[5:]
	if uint64(len(buf)) < uint64(n) {
		return 0, nil, nil, fmt.Errorf("op %d: claims %d bytes, has %d", kind, n, len(buf))
	}
	return kind, buf[:n], buf[n:], nil
}

// eachOp hands every framed record in buf to fn, in order.
func eachOp(buf []byte, fn func(kind byte, payload []byte) error) error {
	for len(buf) > 0 {
		kind, payload, rest, err := nextOp(buf)
		if err != nil {
			return err
		}
		if err := fn(kind, payload); err != nil {
			return fmt.Errorf("op %d: %w", kind, err)
		}
		buf = rest
	}
	return nil
}

// applyOps applies a framed batch of contact sub-records in order. It is
// the single mutation path shared by crash recovery (replaying journaled
// commits and snapshots), a session's private clone (mutations recorded
// mid-contact), and the live commit (re-applying the session's ops under
// the peer lock) — so a recovered peer converges on the same state the live
// path produced.
func (st peerState) applyOps(buf []byte) error {
	return eachOp(buf, st.apply)
}

// apply executes one contact sub-record against the state bundle.
func (st peerState) apply(kind byte, payload []byte) error {
	switch kind {
	case subEncounter:
		if len(payload) != 4+8+8 {
			return fmt.Errorf("encounter payload %d bytes", len(payload))
		}
		peer := model.NodeID(binary.LittleEndian.Uint32(payload))
		now := math.Float64frombits(binary.LittleEndian.Uint64(payload[4:]))
		dp := math.Float64frombits(binary.LittleEndian.Uint64(payload[12:]))
		st.rate.Observe(peer, now)
		st.table.Encounter(peer, now)
		st.table.Transitive(peer, map[model.NodeID]float64{model.CommandCenter: dp})
		return nil
	case subMetaPut:
		e, rest, err := wire.DecodeMetaEntry(payload)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("%d trailing bytes", len(rest))
		}
		st.cache.Put(e)
		return nil
	case subMetaDrop:
		if len(payload) != 8 {
			return fmt.Errorf("drop payload %d bytes", len(payload))
		}
		st.cache.DropInvalid(math.Float64frombits(binary.LittleEndian.Uint64(payload)))
		return nil
	case subStoreReplace:
		final, rest, err := model.DecodePhotoList(payload)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("%d trailing bytes", len(rest))
		}
		return st.store.ReplaceAll(final)
	case subStoreAdd:
		photo, rest, err := model.DecodePhoto(payload)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("%d trailing bytes", len(rest))
		}
		return st.store.Add(photo)
	case subAckDelivered:
		if len(payload) < 8 {
			return fmt.Errorf("ack payload %d bytes", len(payload))
		}
		session := math.Float64frombits(binary.LittleEndian.Uint64(payload))
		acked, rest, err := model.DecodePhotoList(payload[8:])
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("%d trailing bytes", len(rest))
		}
		for _, photo := range acked {
			st.store.Remove(photo.ID)
		}
		st.cache.Put(metadata.Entry{
			Node:      model.CommandCenter,
			Photos:    acked,
			Timestamp: session,
		})
		return nil
	case subEncounterState:
		if len(payload) < 8+4 {
			return errors.New("table header")
		}
		lastAged := math.Float64frombits(binary.LittleEndian.Uint64(payload))
		n := binary.LittleEndian.Uint32(payload[8:])
		payload = payload[12:]
		if uint64(len(payload)) < uint64(n)*12 {
			return errors.New("table entries")
		}
		table := make(map[model.NodeID]float64, n)
		for i := uint32(0); i < n; i++ {
			dst := model.NodeID(binary.LittleEndian.Uint32(payload))
			table[dst] = math.Float64frombits(binary.LittleEndian.Uint64(payload[4:]))
			payload = payload[12:]
		}
		if len(payload) < 1+8+4 {
			return errors.New("rate header")
		}
		rs := metadata.RateSnapshot{
			Started: payload[0] == 1,
			Start:   math.Float64frombits(binary.LittleEndian.Uint64(payload[1:])),
		}
		n = binary.LittleEndian.Uint32(payload[9:])
		payload = payload[13:]
		if uint64(len(payload)) != uint64(n)*8 {
			return errors.New("rate entries")
		}
		if n > 0 {
			rs.PerPeer = make(map[model.NodeID]int, n)
		}
		for i := uint32(0); i < n; i++ {
			peer := model.NodeID(binary.LittleEndian.Uint32(payload))
			rs.PerPeer[peer] = int(binary.LittleEndian.Uint32(payload[4:]))
			payload = payload[8:]
		}
		st.table.Restore(table, lastAged)
		st.rate.Restore(rs)
		return nil
	default:
		return errors.New("unknown sub-record kind")
	}
}
