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
// cross-contact store when resume is negotiated, or a contact-local
// scratch store otherwise, whose leftovers are discarded at teardown under
// the §III-D rule — but counted as wasted bytes. On a durable peer every
// fresh chunk bound for the shared store hits the write-ahead journal
// before the store counts it or the sender sees its ack — memory never
// leads disk — but the fsync is shared: the receiver takes every chunk
// frame that has already arrived as one batch and journals the batch's
// fresh chunks with one append. A photo is admitted to storage only when
// its final chunk lands and the whole-photo checksum verifies, preserving
// the paper's §III-D photo-level atomicity.
package peer

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"photodtn/internal/guard"
	"photodtn/internal/journal"
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
	i := 0
	for ; i+8 <= n; i += 8 {
		state = xorshift(state)
		binary.LittleEndian.PutUint64(buf[i:], state)
	}
	if i < n {
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], xorshift(state))
		copy(buf[i:], word[:])
	}
	return buf
}

// xorshift is one step of the payload keystream.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
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
			// The stream is broken: unblock the reader's pending read and
			// join it, so nothing reads the transport after this returns.
			interruptRead(s.conn)
			for range acks {
			}
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

// readAheadSize is the receive path's read-ahead buffer: room for a
// default window of eight 16 KiB chunk frames, so one read from the
// transport can take everything the sender has put on the wire.
const readAheadSize = 136 << 10

// readAheads recycles read-ahead buffers across contacts. Only a durable
// receiver of a resumable multi-chunk stream takes one (see
// receiveChunks); every other contact reads frames straight from its
// transport.
var readAheads = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readAheadSize) }}

// readAheadConn is a contact transport whose reads drain a read-ahead
// buffer before the transport. A receiver keeps reading through it when
// the buffer still holds bytes after the chunk stream's Ack — only a
// remote that breaks the protocol's turn-taking sends them — so none of
// them is lost.
type readAheadConn struct {
	*bufio.Reader
	conn io.ReadWriter
}

func (c *readAheadConn) Write(p []byte) (int, error) { return c.conn.Write(p) }

// chunkReceipt is one chunk stream's receive state.
type chunkReceipt struct {
	out   map[model.PhotoID]model.Photo // photos assembled and verified
	prior map[model.PhotoID]uint32      // pre-contact chunks per resumed photo
	// With the guard armed: the requested photos and the (photo, index)
	// pairs seen this contact.
	want map[model.PhotoID]bool
	seen map[guard.ChunkKey]bool
	// Scratch reused across reads and batches: the frame buffer (decoded
	// chunks own their bytes), the journaled chunks and their outcomes.
	frame []byte
	frags []wire.Chunk
	added []fragAdd
}

// receiveChunks opens the next transfer leg and reads the peer's chunk
// stream until the terminating Ack, acking each chunk and returning the
// photos that assembled and verified. want lists the photos this node asked
// for. Photos whose resume offer already covered every chunk complete with
// zero traffic.
//
// A durable receiver of a resumable multi-chunk stream takes chunks in
// batches: from its first journaled chunk on it reads through a pooled
// read-ahead buffer, and after each blocking read it also takes every
// frame that has already fully arrived, so the fresh chunks of the batch
// share one journal fsync (see takeChunks). Every other stream is taken
// one frame at a time.
func (s *session) receiveChunks(want []model.PhotoID) (map[model.PhotoID]model.Photo, error) {
	p := s.p
	rc := &chunkReceipt{
		out:   make(map[model.PhotoID]model.Photo),
		prior: make(map[model.PhotoID]uint32),
	}
	// Pre-contact progress classifies completions as resumed and feeds the
	// resume-rate histogram.
	if s.wp.Resume {
		for _, id := range want {
			have, count := p.frags.Chunks(id)
			if have == 0 {
				continue
			}
			rc.prior[id] = have
			if have == count {
				// Full partial from an earlier contact: assemble without a
				// single byte on the wire.
				if res, ok := p.frags.Assemble(id); ok {
					rc.out[id] = res.Photo
					s.noteResumed(have, count)
				}
			}
		}
	}
	// With the guard armed, pin the stream to the request: chunks must name
	// wanted photos (an empty request admits none), match the negotiated
	// chunk size, and never repeat a (photo, index) pair within the contact.
	if p.guard != nil {
		rc.want = make(map[model.PhotoID]bool, len(want))
		for _, id := range want {
			rc.want[id] = true
		}
		rc.seen = make(map[guard.ChunkKey]bool)
	}
	// The read-ahead buffer is taken at the first journaled chunk; frames
	// before it come straight from the transport.
	in := io.Reader(s.conn)
	var ra *bufio.Reader
	defer func() {
		switch {
		case ra == nil:
		case ra.Buffered() > 0:
			s.conn = &readAheadConn{Reader: ra, conn: s.conn}
		default:
			ra.Reset(nil)
			readAheads.Put(ra)
		}
	}()
	var batch []wire.Chunk
	for {
		var msg wire.Message
		var err error
		msg, rc.frame, err = wire.ReadInto(in, rc.frame)
		batch = batch[:0]
		for err == nil {
			c, ok := msg.(wire.Chunk)
			if !ok {
				break
			}
			batch, msg = append(batch, c), nil
			if ra == nil && s.journaled(c) {
				ra = readAheads.Get().(*bufio.Reader)
				ra.Reset(s.conn)
				in = ra
			}
			if ra == nil || !wire.Arrived(ra) {
				break
			}
			msg, rc.frame, err = wire.ReadInto(ra, rc.frame)
		}
		// The chunks read before a failed or foreign frame count as they
		// would have one at a time: stored and acked before the abort.
		if len(batch) > 0 {
			if err := s.takeChunks(batch, rc); err != nil {
				return nil, err
			}
		}
		if err != nil {
			return nil, err
		}
		switch msg.(type) {
		case nil:
		case wire.Ack:
			return rc.out, nil
		default:
			return nil, s.violationf(guard.ReasonPhase, "%v during chunk transfer", msg.Type())
		}
	}
}

// takeChunks handles chunks read together, in stream order: the guard
// checks, then the stores, then one ack per chunk. Fresh chunks bound for
// a durable peer's shared store are journaled as one batch before any of
// them is unioned (addFragments). When a check fails mid-batch, the valid
// prefix is stored and acked before the contact aborts, so the journal
// ends exactly as a chunk-at-a-time receiver leaves it.
func (s *session) takeChunks(cs []wire.Chunk, rc *chunkReceipt) error {
	p := s.p
	var bad *guard.Violation
	if p.guard != nil {
		for i, c := range cs {
			if bad = rc.check(c, int(s.wp.ChunkSize)); bad != nil {
				cs = cs[:i]
				break
			}
		}
	}
	p.tChunksRecv.Add(int64(len(cs)))
	p.cChunksRecv.Add(int64(len(cs)))
	rc.frags = rc.frags[:0]
	for _, c := range cs {
		if s.journaled(c) {
			rc.frags = append(rc.frags, c)
		}
	}
	var err error
	if rc.added, err = p.addFragments(rc.added[:0], rc.frags); err != nil {
		return err
	}
	added := rc.added
	for _, c := range cs {
		var res transfer.AddResult
		if s.journaled(c) {
			res, err = added[0].res, added[0].err
			added = added[1:]
		} else {
			res, err = s.addChunk(c)
		}
		switch {
		case errors.Is(err, transfer.ErrChecksum):
			// Poisoned partial, already dropped (and counted wasted):
			// the photo simply does not complete this contact.
		case err != nil:
			return err
		case res.Complete:
			rc.out[c.Photo.ID] = res.Photo
			if n := rc.prior[c.Photo.ID]; n > 0 {
				s.noteResumed(n, c.Count)
			}
		}
		if err := wire.Write(s.conn, wire.ChunkAck{ID: c.Photo.ID, Index: c.Index}); err != nil {
			return err
		}
	}
	if bad != nil {
		return s.violation(bad)
	}
	return nil
}

// check runs the guard's checks on one chunk and records it as seen.
func (rc *chunkReceipt) check(c wire.Chunk, chunkSize int) *guard.Violation {
	if v := guard.CheckChunk(c, rc.want, chunkSize); v != nil {
		return v
	}
	key := guard.ChunkKey{ID: c.Photo.ID, Index: c.Index}
	if rc.seen[key] {
		return &guard.Violation{Reason: guard.ReasonReplay,
			Detail: fmt.Sprintf("duplicate chunk %v[%d]", c.Photo.ID, c.Index)}
	}
	rc.seen[key] = true
	return nil
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

// journaled reports whether a chunk goes to the shared cross-contact store
// of a durable peer, which journals it: a multi-chunk photo on a resume
// session.
func (s *session) journaled(c wire.Chunk) bool {
	return s.wp.Resume && c.Count > 1 && s.p.stateDir != ""
}

// addChunk routes one received chunk that is not journaled to its
// reassembly store. Multi-chunk photos on a resume session go to the
// peer's shared cross-contact store; everything else lands in the
// contact-local scratch store and dies with the session.
func (s *session) addChunk(c wire.Chunk) (transfer.AddResult, error) {
	if s.wp.Resume && c.Count > 1 {
		return s.p.frags.Add(c)
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

// fragAdd is one journaled chunk's outcome in the shared store.
type fragAdd struct {
	res transfer.AddResult
	err error
}

// addFragments adds chunks to a durable peer's shared reassembly store, in
// stream order, appending their outcomes to dst. The store plans which
// chunks are fresh (transfer.Store.Plan); those are journaled as one batch
// — one write and one fsync — and only then unioned, so a chunk is on disk
// before the store counts it, and the log holds the same records, byte for
// byte, that journaling each fresh chunk on its own would write.
func (p *Peer) addFragments(dst []fragAdd, cs []wire.Chunk) ([]fragAdd, error) {
	if len(cs) == 0 {
		return dst, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.journalErr != nil {
		return dst, p.journalErr
	}
	for len(cs) > 0 {
		p.fragFresh = p.frags.Plan(p.fragFresh[:0], cs)
		p.fragBuf, p.fragEntries = p.fragBuf[:0], p.fragEntries[:0]
		for i, fresh := range p.fragFresh {
			if fresh {
				// A payload keeps pointing at its bytes even when a later
				// append moves fragBuf.
				start := len(p.fragBuf)
				p.fragBuf = wire.AppendChunk(append(p.fragBuf, fragPut), cs[i])
				end := len(p.fragBuf)
				p.fragEntries = append(p.fragEntries, journal.Entry{Type: recFragment, Payload: p.fragBuf[start:end:end]})
			}
		}
		if err := p.jnl.AppendBatch(p.fragEntries...); err != nil {
			p.journalErr = fmt.Errorf("%w: journal fragment: %w", ErrJournal, err)
			return dst, p.journalErr
		}
		for i := range p.fragFresh {
			res, err := p.frags.Add(cs[i])
			dst = append(dst, fragAdd{res: res, err: err})
		}
		cs = cs[len(p.fragFresh):]
	}
	return dst, nil
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
