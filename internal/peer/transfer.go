// Chunked, resumable photo transfer — the peer side of the wire protocol.
//
// The sender plans its whole chunk list up front (resume offers and the
// per-contact byte budget are folded in at plan time), then streams it
// behind the negotiated window: up to that many chunks ride unacknowledged
// while a reader goroutine drains the per-chunk acks. Because the plan is
// fixed before the first write, both sides know exactly how many acks the
// stream carries — no speculative reads, no deadlock on synchronous
// transports.
//
// The receiver routes each chunk to a reassembly store: the peer's shared
// cross-contact store when resume is negotiated (fresh chunks hit the
// write-ahead journal first — memory never leads disk), or a contact-local
// scratch store otherwise, whose leftovers are discarded at teardown under
// the §III-D rule — but counted as wasted bytes. A photo is admitted to
// storage only when its final chunk lands and the whole-photo checksum
// verifies, preserving the paper's §III-D photo-level atomicity.
package peer

import (
	"encoding/binary"
	"errors"
	"fmt"

	"photodtn/internal/guard"
	"photodtn/internal/model"
	"photodtn/internal/transfer"
	"photodtn/internal/wire"
)

// payloadFor generates the deterministic synthetic payload of a photo: an
// xorshift keystream keyed by the photo ID, so every holder produces
// bit-identical bytes — the cross-holder consistency that lets a transfer
// started from one relay resume from another with matching checksums.
func payloadFor(id model.PhotoID, n int) []byte {
	if n <= 0 {
		return nil
	}
	buf := make([]byte, n)
	state := uint64(id)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	var word [8]byte
	for i := 0; i < n; i += 8 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		binary.LittleEndian.PutUint64(word[:], state)
		copy(buf[i:], word[:])
	}
	return buf
}

// chunkPlan splits a photo's payload into canonical wire chunks for the
// session's negotiated chunk size. Data slices alias the payload buffer.
func (s *session) chunkPlan(photo model.Photo) []wire.Chunk {
	size := int(s.wp.ChunkSize)
	payload := payloadFor(photo.ID, s.p.payload)
	total := uint64(len(payload))
	count := uint32(wire.ChunkCount(int64(total), size))
	crc := wire.PayloadCRC(payload)
	out := make([]wire.Chunk, 0, count)
	for i := uint32(0); i < count; i++ {
		lo := int(i) * size
		hi := lo + size
		if hi > len(payload) {
			hi = len(payload)
		}
		out = append(out, wire.Chunk{
			Photo: photo, Index: i, Count: count, ChunkSize: uint32(size),
			Total: total, PayloadCRC: crc, Data: payload[lo:hi],
		})
	}
	return out
}

// sendOffer writes this node's resume offer for the photos it is about to
// receive. Sent on every session to keep the exchange in lockstep; the
// offer is empty when resume is off or nothing is partially held.
func (s *session) sendOffer(want []model.PhotoID) error {
	var offer wire.ResumeOffer
	if s.wp.Resume {
		for _, id := range want {
			if e, ok := s.p.frags.Offer(id); ok {
				offer.Entries = append(offer.Entries, e)
			}
		}
	}
	return wire.Write(s.conn, offer)
}

// readOffer reads the peer's resume offer into a lookup map, pinning it —
// when the guard is armed — to the request that preceded it: an offer may
// only name photos this side just asked the remote to send.
func (s *session) readOffer(requested []model.PhotoID) (map[model.PhotoID]wire.ResumeEntry, error) {
	offer, err := readIn[wire.ResumeOffer](s)
	if err != nil {
		return nil, err
	}
	if s.p.guard != nil {
		asked := make(map[model.PhotoID]bool, len(requested))
		for _, id := range requested {
			asked[id] = true
		}
		if v := guard.CheckResumeOffer(offer, asked); v != nil {
			return nil, s.violation(v)
		}
	}
	out := make(map[model.PhotoID]wire.ResumeEntry, len(offer.Entries))
	for _, e := range offer.Entries {
		out[e.ID] = e
	}
	return out, nil
}

// sendChunks opens the next transfer leg, streams the requested photos this
// node holds as chunks, and terminates the stream with an Ack naming the
// photos the receiver can now assemble. A
// resume offer whose geometry matches lets the sender skip the chunks the
// receiver already holds; the per-contact byte budget truncates the plan —
// a photo cut mid-stream is not acked, but with resume on its prefix
// survives at the receiver for the next contact.
func (s *session) sendChunks(ids []model.PhotoID, offers map[model.PhotoID]wire.ResumeEntry) error {
	p := s.p
	budget := p.transfer.BudgetBytes
	var plan []wire.Chunk
	var sent []model.PhotoID
	var spent int64
	truncated := false
	for _, id := range ids {
		if truncated {
			break
		}
		photo, ok := s.st.store.Get(id)
		if !ok {
			continue
		}
		chunks := s.chunkPlan(photo)
		missing := chunks
		if e, ok := offers[id]; ok && len(chunks) > 0 &&
			e.ChunkSize == chunks[0].ChunkSize && e.Count == chunks[0].Count &&
			e.Total == chunks[0].Total && e.PayloadCRC == chunks[0].PayloadCRC {
			missing = missing[:0:0]
			var saved int64
			for _, idx := range transfer.MissingChunks(e) {
				missing = append(missing, chunks[idx])
			}
			for _, c := range chunks {
				saved += int64(len(c.Data))
			}
			for _, c := range missing {
				saved -= int64(len(c.Data))
			}
			if skipped := len(chunks) - len(missing); skipped > 0 {
				p.tChunksResumed.Add(int64(skipped))
				p.cChunksResumed.Add(int64(skipped))
				p.tResumedBytes.Add(saved)
			}
		}
		complete := true
		for _, c := range missing {
			if budget > 0 && spent+int64(len(c.Data)) > budget {
				complete = false
				truncated = true
				break
			}
			plan = append(plan, c)
			spent += int64(len(c.Data))
		}
		if complete {
			sent = append(sent, id)
		}
	}

	// Pipelined send: the plan's length fixes the ack count, so the reader
	// goroutine knows exactly when the stream is drained. The fixed plan
	// also pins the legal ack set: the map is fully built before the
	// goroutine starts (happens-before) and only the goroutine touches it
	// after, so no lock is needed.
	n := len(plan)
	var outstanding map[guard.ChunkKey]int
	if p.guard != nil {
		outstanding = make(map[guard.ChunkKey]int, n)
		for _, c := range plan {
			outstanding[guard.ChunkKey{ID: c.Photo.ID, Index: c.Index}]++
		}
	}
	acks := make(chan wire.ChunkAck, n)
	errc := make(chan error, 1)
	go func() {
		defer close(acks)
		for i := 0; i < n; i++ {
			a, err := readIn[wire.ChunkAck](s)
			if err != nil {
				errc <- err
				return
			}
			if outstanding != nil {
				if v := guard.CheckChunkAck(a, outstanding); v != nil {
					errc <- s.violation(v)
					return
				}
				outstanding[guard.ChunkKey{ID: a.ID, Index: a.Index}]--
			}
			acks <- a
		}
		errc <- nil
	}()
	window := int(s.wp.Window)
	inflight := 0
	for _, c := range plan {
		for inflight >= window {
			if _, ok := <-acks; !ok {
				if err := <-errc; err != nil {
					return fmt.Errorf("chunk ack stream: %w", err)
				}
				return fmt.Errorf("%w: chunk acks ended before the stream", ErrProtocol)
			}
			inflight--
		}
		if err := wire.Write(s.conn, c); err != nil {
			return err
		}
		inflight++
		p.tChunksSent.Add(1)
		p.cChunksSent.Inc()
	}
	for range acks {
	}
	if err := <-errc; err != nil {
		return fmt.Errorf("chunk ack stream: %w", err)
	}
	return wire.Write(s.conn, wire.Ack{IDs: sent})
}

// receiveChunks opens the next transfer leg and reads the peer's chunk
// stream until the terminating Ack, acking each chunk and returning the
// photos that assembled and verified. want lists the photos this node asked
// for. Photos whose resume offer already covered every chunk complete with
// zero traffic.
func (s *session) receiveChunks(want []model.PhotoID) (map[model.PhotoID]model.Photo, error) {
	p := s.p
	out := make(map[model.PhotoID]model.Photo)
	// Pre-contact progress classifies completions as resumed and feeds the
	// resume-rate histogram.
	prior := make(map[model.PhotoID]uint32)
	if s.wp.Resume {
		for _, id := range want {
			have, count := p.frags.Chunks(id)
			if have == 0 {
				continue
			}
			prior[id] = have
			if have == count {
				// Full partial from an earlier contact: assemble without a
				// single byte on the wire.
				if res, ok := p.frags.Assemble(id); ok {
					out[id] = res.Photo
					s.noteResumed(have, count)
				}
			}
		}
	}
	// With the guard armed, pin the stream to the request: chunks must name
	// wanted photos (an empty request admits none), match the negotiated
	// chunk size, and never repeat a (photo, index) pair within the contact.
	var wantSet map[model.PhotoID]bool
	var seen map[guard.ChunkKey]bool
	if p.guard != nil {
		wantSet = make(map[model.PhotoID]bool, len(want))
		for _, id := range want {
			wantSet[id] = true
		}
		seen = make(map[guard.ChunkKey]bool)
	}
	for {
		msg, err := wire.Read(s.conn)
		if err != nil {
			return nil, err
		}
		switch m := msg.(type) {
		case wire.Chunk:
			if p.guard != nil {
				if v := guard.CheckChunk(m, wantSet, int(s.wp.ChunkSize)); v != nil {
					return nil, s.violation(v)
				}
				key := guard.ChunkKey{ID: m.Photo.ID, Index: m.Index}
				if seen[key] {
					return nil, s.violationf(guard.ReasonReplay, "duplicate chunk %v[%d]", m.Photo.ID, m.Index)
				}
				seen[key] = true
			}
			p.tChunksRecv.Add(1)
			p.cChunksRecv.Inc()
			res, err := s.addChunk(m)
			switch {
			case errors.Is(err, transfer.ErrChecksum):
				// Poisoned partial, already dropped (and counted wasted):
				// the photo simply does not complete this contact.
			case err != nil:
				return nil, err
			case res.Complete:
				out[m.Photo.ID] = res.Photo
				if n := prior[m.Photo.ID]; n > 0 {
					s.noteResumed(n, m.Count)
				}
			}
			if err := wire.Write(s.conn, wire.ChunkAck{ID: m.Photo.ID, Index: m.Index}); err != nil {
				return nil, err
			}
		case wire.Ack:
			return out, nil
		default:
			return nil, s.violationf(guard.ReasonPhase, "%v during chunk transfer", msg.Type())
		}
	}
}

// noteResumed records one photo completed across contacts: prior of its
// count chunks predated this contact.
func (s *session) noteResumed(prior, count uint32) {
	p := s.p
	p.tPhotosRes.Add(1)
	if count > 0 {
		p.hResumeRate.Observe(float64(prior) / float64(count))
	}
}

// addChunk routes one received chunk to its reassembly store. Multi-chunk
// photos on a resume session go to the peer's shared cross-contact store —
// fresh chunks are journaled before the in-memory union, so a crash never
// loses progress the store claims to have. Everything else lands in the
// contact-local scratch store and dies with the session.
func (s *session) addChunk(c wire.Chunk) (transfer.AddResult, error) {
	p := s.p
	if s.wp.Resume && c.Count > 1 {
		if p.stateDir == "" {
			return p.frags.Add(c)
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.journalErr != nil {
			return transfer.AddResult{}, p.journalErr
		}
		if !p.frags.Has(c.Photo.ID, c.Index) {
			if err := p.jnl.Append(recFragment, encodeFragPut(c)); err != nil {
				p.journalErr = fmt.Errorf("%w: journal fragment: %w", ErrJournal, err)
				return transfer.AddResult{}, p.journalErr
			}
		}
		return p.frags.Add(c)
	}
	if s.localFrags == nil {
		s.localFrags = transfer.NewStore(0)
	}
	res, err := s.localFrags.Add(c)
	if res.Complete {
		// The payload served its verification purpose; without resume the
		// scratch copy has no future.
		s.localFrags.Drop(c.Photo.ID, false)
	}
	return res, err
}

// finishTransfer settles the session's scratch reassembly state at contact
// teardown: whatever the local store still tracks — incomplete photos from
// an aborted or budget-cut transfer — is wasted, exactly the bytes the
// §III-D discard rule throws away.
func (s *session) finishTransfer() {
	if s.localFrags == nil {
		return
	}
	st := s.localFrags.Stats()
	if wasted := st.FragmentBytes + st.WastedBytes; wasted > 0 {
		s.p.tWastedLocal.Add(wasted)
		s.p.cWastedBytes.Add(wasted)
	}
	s.localFrags = nil
}
