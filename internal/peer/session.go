package peer

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"photodtn/internal/guard"
	"photodtn/internal/metadata"
	"photodtn/internal/model"
	"photodtn/internal/selection"
	"photodtn/internal/transfer"
	"photodtn/internal/wire"
)

// ErrConflict reports that a session's commit lost a race with a concurrent
// commit it could not be reconciled with (the re-planned collection no
// longer fits). The contact aborts gracefully per §III-D — no partial state
// — and the next contact re-plans against the fresh state.
var ErrConflict = errors.New("peer: concurrent commit conflict")

// session is one contact's private state. It is created under the peer
// lock (beginSession) with a deep clone of the protocol state and a few
// scalars, then runs the whole wire exchange without any peer lock: every
// protocol decision — metadata validity, the joint selection, transfer
// want-lists — reads and writes the clone. Mutations are double-entry: each
// one is applied to the clone AND recorded as a framed op (the same framing
// the journal replays), so that commit can re-apply the identical ops to
// the shared state under the lock. Live commit and crash recovery are the
// same code path by construction, which is what keeps StateDigest
// convergent under concurrency.
type session struct {
	p  *Peer
	st peerState // private clones; all protocol reads/writes go here

	now     float64 // peer clock at snapshot time
	nonce   uint64  // hello nonce, drawn under the peer lock
	baseGen uint64  // the photo store's generation at snapshot time
	baseIDs map[model.PhotoID]bool

	ops       []byte // framed sub-records, applied locally as recorded
	committed bool   // commit already ran (mid-protocol commit points)

	// Transfer state: the contact's transport, the negotiated transfer
	// parameters and, when resume is off (or a photo fits one chunk), a
	// contact-local scratch reassembly store whose leftovers are wasted at
	// teardown — the §III-D discard rule, but measured.
	conn       io.ReadWriter
	wp         wire.Params
	localFrags *transfer.Store

	// Guard bookkeeping: remote is known once the hello exchange names the
	// peer.
	remote      model.NodeID
	remoteKnown bool
}

// beginSession snapshots the peer under the lock: state clones, the clock,
// the nonce, and the store generation the conflict check validates against.
func (p *Peer) beginSession() (*session, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.journalErr != nil {
		return nil, p.journalErr
	}
	p.cContacts.Inc()
	s := &session{
		p:       p,
		st:      p.peerState.clone(),
		now:     p.clock(),
		nonce:   p.rng.Uint64(),
		baseGen: p.store.Gen(),
		baseIDs: make(map[model.PhotoID]bool, p.store.Len()),
	}
	for _, photo := range p.store.Photos() {
		s.baseIDs[photo.ID] = true
	}
	return s, nil
}

// readIn reads one frame and asserts its concrete type. The contact's code
// is its round sequence, so every read site knows the one message type the
// round allows: any other type — out of order, a replayed round, a frame
// from another phase — is a phase violation the guard scores, and the
// contact aborts cleanly.
func readIn[M wire.Message](s *session) (M, error) {
	var zero M
	msg, err := wire.Read(s.conn)
	if err != nil {
		return zero, err
	}
	m, ok := msg.(M)
	if !ok {
		return zero, s.violationf(guard.ReasonPhase, "got %v, want %v", msg.Type(), zero.Type())
	}
	return m, nil
}

// record applies one op to the session's private state and appends it to
// the op log the commit will replay against the shared state. The apply
// happens now — later protocol steps must see earlier mutations exactly as
// the serialised protocol did.
func (s *session) record(kind byte, payload []byte) error {
	if err := s.st.apply(kind, payload); err != nil {
		return err
	}
	s.ops = appendOp(s.ops, kind, payload)
	return nil
}

// commit validates the session against the live state and applies its op
// log in one short critical section: conflict reconciliation, the single
// journal append (the WAL stays single-writer — every Append happens here,
// under the peer lock), then the in-memory apply of the exact bytes that
// were journaled. Memory never leads disk.
func (s *session) commit() error {
	p := s.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.committed {
		return nil
	}
	if p.journalErr != nil {
		return p.journalErr
	}
	ops, err := s.reconcileLocked()
	if err != nil {
		if errors.Is(err, ErrConflict) {
			p.cConflictAborts.Inc()
		}
		return err
	}
	if p.jnl != nil {
		if err := p.jnl.Append(recContactCommit, ops); err != nil {
			p.journalErr = fmt.Errorf("%w: commit contact: %w", ErrJournal, err)
			return p.journalErr
		}
	}
	if err := p.peerState.applyOps(ops); err != nil {
		// Reconciliation validated every op against the live state, so this
		// is unreachable short of a bug. For a durable peer the record is
		// already on disk — poison so memory never silently lags it.
		err = fmt.Errorf("apply commit: %w", err)
		if p.jnl != nil {
			p.journalErr = fmt.Errorf("%w: %w", ErrJournal, err)
			err = p.journalErr
		}
		return err
	}
	s.committed = true
	// Settle the reassembly store before any checkpoint: partials whose
	// photo this commit admitted or learned was delivered are dropped (and
	// the drops journaled) so neither the log nor a snapshot carries them.
	if err := p.reconcileFragsLocked(); err != nil {
		return err
	}
	return p.noteCommitLocked()
}

// reconcileLocked returns the op batch to commit. The fast path — the
// session left its clone's store as it found it, or no concurrent commit
// touched the live store since the snapshot — passes the log through
// untouched. Otherwise each store op is validated against the live
// state: duplicate adds are dropped (a racing relay delivered the photo
// first), adds that no longer fit abort, and a reallocation's ReplaceAll is
// re-planned (see replanReplace) or aborted.
func (s *session) reconcileLocked() ([]byte, error) {
	p := s.p
	if s.st.store.Gen() == s.baseGen || p.store.Gen() == s.baseGen {
		return s.ops, nil
	}
	p.cConflicts.Inc()
	out := make([]byte, 0, len(s.ops))
	addFree := p.store.Free()
	for buf := s.ops; len(buf) > 0; {
		kind, payload, rest, err := nextOp(buf)
		if err != nil {
			return nil, err
		}
		buf = rest
		switch kind {
		case subStoreAdd:
			photo, _, err := model.DecodePhoto(payload)
			if err != nil {
				return nil, err
			}
			if p.store.Has(photo.ID) {
				continue // already here via a concurrent commit: drop the duplicate
			}
			if photo.Size > addFree {
				return nil, fmt.Errorf("%w: concurrent commits left no room for photo %v", ErrConflict, photo.ID)
			}
			addFree -= photo.Size
			out = appendOp(out, kind, payload)
		case subStoreReplace:
			final, _, err := model.DecodePhotoList(payload)
			if err != nil {
				return nil, err
			}
			merged, err := s.replanReplace(final)
			if err != nil {
				return nil, err
			}
			out = appendOp(out, kind, merged.AppendBinary(nil))
		default:
			out = appendOp(out, kind, payload)
		}
	}
	return out, nil
}

// replanReplace merges a §III-D reallocation computed against a stale
// snapshot with what concurrent commits did meanwhile: photos that arrived
// since the snapshot are kept (the plan never judged them), photos the plan
// kept but a concurrent commit removed stay gone (they were delivered or
// moved), and the merge aborts with ErrConflict when it no longer fits the
// capacity.
func (s *session) replanReplace(final model.PhotoList) (model.PhotoList, error) {
	p := s.p
	merged := make(model.PhotoList, 0, len(final))
	var total int64
	inFinal := make(map[model.PhotoID]bool, len(final))
	for _, photo := range final {
		inFinal[photo.ID] = true
		if s.baseIDs[photo.ID] && !p.store.Has(photo.ID) {
			continue // concurrently removed: it was delivered or moved on
		}
		merged = append(merged, photo)
		total += photo.Size
	}
	for _, photo := range p.store.Photos() {
		if s.baseIDs[photo.ID] || inFinal[photo.ID] {
			continue
		}
		merged = append(merged, photo) // arrived mid-session: keep it
		total += photo.Size
	}
	if total > p.store.Capacity() {
		return nil, fmt.Errorf("%w: re-planned collection needs %d bytes, capacity %d",
			ErrConflict, total, p.store.Capacity())
	}
	return merged, nil
}

// run executes the wire protocol of one contact against the session's
// snapshot. It is the serialised contactSession of earlier revisions with
// every peer-state access redirected to the clone.
func (s *session) run(conn io.ReadWriter, initiator bool) error {
	p := s.p
	now := s.now

	mine := wire.Hello{
		Node:         p.id,
		Lambda:       s.st.rate.Rate(now),
		DeliveryProb: s.deliveryProb(now),
		Time:         now,
		Nonce:        s.nonce,
		Capacity:     s.st.store.Capacity(),
	}
	wp, theirs, err := wire.Negotiate(conn, mine, p.transfer.wireParams(), initiator)
	if err != nil {
		if errors.Is(err, wire.ErrHandshake) {
			return fmt.Errorf("%w: %w", ErrProtocol, err)
		}
		return err
	}
	s.conn, s.wp = conn, wp
	s.remote, s.remoteKnown = theirs.Node, true
	// Guard admission and hello validation happen before the encounter is
	// recorded: a shed or lying peer must not influence the PROPHET table
	// or the learned contact rate, even on the session's private clone.
	if p.guard != nil {
		if err := p.guard.AdmitContact(theirs.Node, p.clock()); err != nil {
			return wrapAdmitErr(err)
		}
		if v := guard.CheckHello(theirs, now); v != nil {
			return s.violation(v)
		}
	}
	// Use a shared session clock so both sides make identical validity and
	// selection decisions.
	session := math.Max(mine.Time, theirs.Time)

	// Rate observation + PROPHET encounter + transitivity toward the
	// command center with the advertised predictability.
	if err := s.record(subEncounter, encodeEncounter(theirs.Node, now, theirs.DeliveryProb)); err != nil {
		return err
	}

	// Metadata exchange: each side first summarises what it caches, then
	// sends its own collection followed by the gossiped entries the other's
	// summary shows it lacks.
	theirSum, err := exchange(s, initiator, s.summaryMsg(), guard.CheckMetaSummary, session)
	if err != nil {
		return err
	}
	mineMD, withheld, acksWithheld := s.metadataMsg(session, theirSum)
	md, err := exchange(s, initiator, mineMD, guard.CheckMetadata, session)
	if err != nil {
		return err
	}
	p.cMetaSent.Add(int64(len(mineMD.Entries)))
	p.cMetaWithheld.Add(int64(withheld))
	p.cAcksWithheld.Add(int64(acksWithheld))
	peerPhotos, err := s.absorbMetadata(theirs, md, session)
	if err != nil {
		return err
	}

	switch {
	case theirs.Node.IsCommandCenter():
		return s.upload(session)
	case p.id.IsCommandCenter():
		return s.receiveUpload()
	default:
		return s.reallocate(initiator, mine, theirs, peerPhotos, session)
	}
}

func (s *session) deliveryProb(now float64) float64 {
	if s.p.id.IsCommandCenter() {
		return 1
	}
	return s.st.table.DeliveryProb(now)
}

// exchange runs one round of strict turn-taking, which keeps the protocol
// deadlock-free even over unbuffered transports: the initiator sends mine
// and then reads the remote's message, the responder reads first and
// answers. Either side checks what it read against the session clock
// (guard only) before it is used — and, on the responder, before
// answering: a poisoned message is not worth the bandwidth of this node's
// own, and aborts the contact with nothing applied and nothing spent.
func exchange[M wire.Message](s *session, initiator bool, mine M, check func(M, float64) *guard.Violation, session float64) (M, error) {
	var zero M
	if initiator {
		if err := wire.Write(s.conn, mine); err != nil {
			return zero, err
		}
	}
	theirs, err := readIn[M](s)
	if err != nil {
		return zero, err
	}
	if s.p.guard != nil {
		if v := check(theirs, session); v != nil {
			return zero, s.violation(v)
		}
	}
	if !initiator {
		if err := wire.Write(s.conn, mine); err != nil {
			return zero, err
		}
	}
	return theirs, nil
}

// summaryMsg summarises the session's cache: the stamp of every
// non-command-center entry, stale ones included, and the IDs of the photos
// its command-center entry holds.
func (s *session) summaryMsg() wire.MetaSummary {
	return wire.MetaSummary{Entries: s.st.cache.Summary(), Delivered: s.st.cache.Delivered()}
}

// metadataMsg builds the metadata message: the self entry first, then the
// valid cache entries the remote's summary shows it lacks, in node order.
// It withholds every entry metadata.Novel rejects — the remote's own, and
// non-command-center entries no newer than the remote's copy — since the
// remote's cache would ignore them. Every command-center entry it sends,
// a relay's cached one or the command center's own, carries only the
// photos the summary's Delivered lacks (metadata.Lacking); its header goes
// even when no photo is left, as the merge still takes its stamp. It
// returns how many entries it withheld and how many ledger photos.
func (s *session) metadataMsg(session float64, theirs wire.MetaSummary) (md wire.Metadata, withheld, acksWithheld int) {
	md.Entries = []metadata.Entry{{
		Node:      s.p.id,
		Lambda:    s.st.rate.Rate(session),
		P:         s.deliveryProb(session),
		Timestamp: session,
		Photos:    s.st.store.List(),
	}}
	for _, e := range s.st.cache.ValidEntries(session) {
		if !metadata.Novel(e, s.remote, theirs.Entries) {
			withheld++
			continue
		}
		md.Entries = append(md.Entries, e)
	}
	for i := range md.Entries {
		if e := &md.Entries[i]; e.Node.IsCommandCenter() {
			lacking := metadata.Lacking(e.Photos, theirs.Delivered)
			acksWithheld += len(e.Photos) - len(lacking)
			e.Photos = lacking
		}
	}
	return md, withheld, acksWithheld
}

// absorbMetadata stores the peer's snapshot and gossip, returning the
// peer's own collection. A command center's self entry carries only the
// photos this node lacked, so the collection returned for it is partial;
// a contact with the command center is an upload, which never reads it.
func (s *session) absorbMetadata(h wire.Hello, md wire.Metadata, session float64) (model.PhotoList, error) {
	var peerPhotos model.PhotoList
	for i, e := range md.Entries {
		if i == 0 && e.Node == h.Node {
			peerPhotos = e.Photos
			e.Timestamp = session
		}
		if err := s.record(subMetaPut, wire.AppendMetaEntry(nil, e)); err != nil {
			return nil, err
		}
	}
	held := s.st.cache.Len()
	if err := s.record(subMetaDrop, encodeMetaDrop(session)); err != nil {
		return nil, err
	}
	s.p.cInvalidations.Add(int64(held - s.st.cache.Len()))
	return peerPhotos, nil
}

// reallocate runs the §III-D exchange with a fellow participant.
func (s *session) reallocate(initiator bool, mine, theirs wire.Hello, peerPhotos model.PhotoList, session float64) error {
	p := s.p
	selCfg := p.selCfg
	selCfg.Seed = int64(mine.Nonce ^ theirs.Nonce)

	// The view holds this node's snapshot of the peer, which Reallocate
	// skips in favour of the live collection in the peer's alloc.
	view := s.st.cache.ValidEntries(session)

	// Both sides order the allocs identically (initiator first) so the
	// jointly-seeded greedy is bit-for-bit reproducible.
	myAlloc := selection.Alloc{Node: p.id, P: mine.DeliveryProb, Capacity: s.st.store.Capacity(), Photos: s.st.store.List()}
	peerAlloc := selection.Alloc{Node: theirs.Node, P: theirs.DeliveryProb, Capacity: theirs.Capacity, Photos: peerPhotos}
	var res selection.Result
	var mySel model.PhotoList
	if initiator {
		res = selection.Reallocate(p.fpc, selCfg, view, myAlloc, peerAlloc)
		mySel = res.ASel
	} else {
		res = selection.Reallocate(p.fpc, selCfg, view, peerAlloc, myAlloc)
		mySel = res.BSel
	}

	// Request the selected photos this node lacks. The request is followed
	// by a resume offer: the partial progress this node already holds for
	// the photos it wants, so the sender skips chunks that landed in an
	// earlier contact.
	var want []model.PhotoID
	for _, photo := range mySel {
		if !s.st.store.Has(photo.ID) {
			want = append(want, photo.ID)
		}
	}
	if initiator {
		if err := wire.Write(s.conn, wire.PhotoRequest{IDs: want}); err != nil {
			return err
		}
		if err := s.sendOffer(want); err != nil {
			return err
		}
		theirReq, err := readIn[wire.PhotoRequest](s)
		if err != nil {
			return err
		}
		theirOffer, err := s.readOffer(theirReq.IDs)
		if err != nil {
			return err
		}
		if err := s.sendChunks(theirReq.IDs, theirOffer); err != nil {
			return err
		}
		received, err := s.receiveChunks(want)
		if err != nil {
			return err
		}
		return s.applyPlan(mySel, received, true)
	}
	theirReq, err := readIn[wire.PhotoRequest](s)
	if err != nil {
		return err
	}
	theirOffer, err := s.readOffer(theirReq.IDs)
	if err != nil {
		return err
	}
	if err := wire.Write(s.conn, wire.PhotoRequest{IDs: want}); err != nil {
		return err
	}
	if err := s.sendOffer(want); err != nil {
		return err
	}
	received, err := s.receiveChunks(want)
	if err != nil {
		return err
	}
	if err := s.sendChunks(theirReq.IDs, theirOffer); err != nil {
		return err
	}
	return s.applyPlan(mySel, received, false)
}

// applyPlan replaces the collection with the selection (kept ∪ received)
// and closes the contact. The responder commits before sending its final
// Bye: the initiator then only commits after seeing proof the responder's
// half of the reallocation is durable, which keeps a commit conflict on
// either side from splitting the exchange (the side that aborts does so
// before the other applies anything).
func (s *session) applyPlan(sel model.PhotoList, received map[model.PhotoID]model.Photo, initiator bool) error {
	final := make(model.PhotoList, 0, len(sel))
	for _, photo := range sel {
		if s.st.store.Has(photo.ID) {
			final = append(final, photo)
		} else if got, ok := received[photo.ID]; ok {
			final = append(final, got)
		}
	}
	if err := s.record(subStoreReplace, final.AppendBinary(nil)); err != nil {
		return fmt.Errorf("peer %v: apply plan: %w", s.p.id, err)
	}
	if initiator {
		if err := wire.Write(s.conn, wire.Bye{}); err != nil {
			return err
		}
		_, err := readIn[wire.Bye](s)
		return err
	}
	if _, err := readIn[wire.Bye](s); err != nil {
		return err
	}
	if err := s.commit(); err != nil {
		return err
	}
	return wire.Write(s.conn, wire.Bye{})
}

// upload sends the command center the photos that improve its coverage, in
// marginal-gain order, then frees the delivered copies. The send is preceded
// by an announce/offer exchange: the uploader lists what it will send and
// the command center answers with the chunk progress it already holds from
// earlier contacts.
func (s *session) upload(session float64) error {
	ccEntry, _ := s.st.cache.Get(model.CommandCenter)
	// The command center's own snapshot (just absorbed, authoritative) is a
	// delivery acknowledgement (§III-B): any held photo it lists already
	// arrived — through another relay, or in a contact whose ack this node
	// lost to a crash — so purge it instead of re-reporting it.
	if purged := s.deliveredHeld(ccEntry.Photos); len(purged) > 0 {
		if err := s.record(subAckDelivered, encodeAckDelivered(session, purged)); err != nil {
			return err
		}
	}
	plan := s.p.selectForUpload(ccEntry.Photos, s.st.store.Photos())
	var ids []model.PhotoID
	for _, photo := range plan {
		ids = append(ids, photo.ID)
	}
	if err := wire.Write(s.conn, wire.PhotoRequest{IDs: ids}); err != nil {
		return err
	}
	offers, err := s.readOffer(ids)
	if err != nil {
		return err
	}
	if err := s.sendChunks(ids, offers); err != nil {
		return err
	}
	ack, err := readIn[wire.Ack](s)
	if err != nil {
		return err
	}
	// Fold the acknowledgement in: acked photos leave the store and join
	// the command-center cache entry.
	acked := model.PhotoList{}
	for _, id := range ack.IDs {
		if photo, ok := s.st.store.Get(id); ok {
			acked = append(acked, photo)
		}
	}
	if err := s.record(subAckDelivered, encodeAckDelivered(session, acked)); err != nil {
		return err
	}
	if _, err := readIn[wire.Bye](s); err != nil {
		return err
	}
	return wire.Write(s.conn, wire.Bye{})
}

// selectForUpload plans an upload on the peer's own session, which extends
// the command-center coverage it kept from the last upload. An upload that
// finds the session busy with another plans on a pooled one instead: the
// plans are the same either way, only the work differs.
func (p *Peer) selectForUpload(ccPhotos, photos model.PhotoList) model.PhotoList {
	if !p.upMu.TryLock() {
		return selection.SelectForUpload(p.fpc, p.selCfg, ccPhotos, photos)
	}
	defer p.upMu.Unlock()
	return p.upSel.SelectForUpload(p.fpc, p.selCfg, ccPhotos, photos)
}

// deliveredHeld returns the held photos that appear in the delivered list.
func (s *session) deliveredHeld(delivered model.PhotoList) model.PhotoList {
	var purged model.PhotoList
	for _, photo := range s.st.store.Photos() {
		if delivered.Contains(photo.ID) {
			purged = append(purged, photo)
		}
	}
	return purged
}

// receiveUpload is the command-center side of an upload. The commit happens
// before the Ack goes out: an acknowledgement the uploader will act on
// (freeing its copies) must refer to photos this node can no longer forget.
func (s *session) receiveUpload() error {
	ann, err := readIn[wire.PhotoRequest](s)
	if err != nil {
		return err
	}
	if err := s.sendOffer(ann.IDs); err != nil {
		return err
	}
	received, err := s.receiveChunks(ann.IDs)
	if err != nil {
		return err
	}
	ids := make([]model.PhotoID, 0, len(received))
	for id := range received {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !s.st.store.Has(id) {
			if err := s.record(subStoreAdd, received[id].AppendBinary(nil)); err != nil {
				return fmt.Errorf("peer %v: store upload: %w", s.p.id, err)
			}
		}
	}
	if err := s.commit(); err != nil {
		return err
	}
	if err := wire.Write(s.conn, wire.Ack{IDs: ids}); err != nil {
		return err
	}
	if err := wire.Write(s.conn, wire.Bye{}); err != nil {
		return err
	}
	_, err = readIn[wire.Bye](s)
	return err
}
