// Package transfer is the chunk reassembly store behind the wire
// protocol's chunked transfer: it tracks, per photo, which CRC-framed
// chunks have landed, unions duplicates idempotently, and releases the
// assembled payload only when every chunk is present and the whole-photo
// checksum verifies.
//
// The store deliberately knows nothing about contacts, sessions, or
// journals. The peer layer decides which store an incoming chunk goes to
// (the shared cross-contact store when resume is negotiated, a
// contact-local scratch store otherwise), persists fresh chunks through
// its write-ahead journal before handing them here, and drops a photo's
// partial once the photo is durably admitted. That split preserves the
// paper's §III-D atomicity argument at the photo level — a photo either
// appears whole in storage or not at all — while salvaging chunk progress
// across contact disruptions. A peer's snapshot journals the chunks Held
// returns and recovery hands them back to Add, so a restored partial passes
// the same checks as one built live.
//
// A partial's reassembly buffer comes from a process-wide pool and goes
// back to it when the partial leaves the store (admitted, wasted or
// evicted), so the assembled bytes never leave the store: Held copies
// them, and a completion reports only the photo.
package transfer

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"photodtn/internal/model"
	"photodtn/internal/wire"
)

// ErrChecksum reports a fully assembled payload whose whole-photo CRC did
// not match the geometry every chunk declared. The partial is dropped (and
// its bytes counted wasted) before the error returns, so the next contact
// restarts the photo from chunk zero instead of re-verifying poison.
var ErrChecksum = errors.New("transfer: assembled payload checksum mismatch")

// Store tracks partial photo reassemblies. Safe for concurrent use by
// multiple contact sessions.
type Store struct {
	mu sync.Mutex
	// maxBytes caps the summed Total of tracked partials; 0 is unlimited.
	// When a new photo would exceed the cap, least-recently-touched
	// partials are evicted (their bytes counted wasted) to make room.
	maxBytes int64
	bytes    int64 // sum of tracked partials' received bytes
	alloc    int64 // sum of tracked partials' Total (buffer footprint)
	seq      int64 // touch clock for LRU eviction
	parts    map[model.PhotoID]*partial

	// counters (monotonic; survive partial turnover)
	chunksAdded int64
	completed   int64
	restarts    int64
	evictions   int64
	wasted      int64
}

type partial struct {
	photo     model.Photo
	chunkSize uint32
	count     uint32
	total     uint64
	crc       uint32
	have      []uint64 // chunk bitmap, LSB-first words
	haveCount uint32
	received  int64   // bytes landed so far
	buf       *[]byte // pooled reassembly buffer; *buf is the payload
	touched   int64
}

// bufs recycles reassembly buffers across partials and stores. A buffer
// taken from it is dirty: it holds some earlier payload's bytes. That is
// harmless, because a complete partial has had every byte written by
// exactly one chunk, and the checksum is taken over those bytes alone.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf is the largest reassembly buffer the pool keeps; larger
// ones are left to the collector, as the wire's frame pool does.
const maxPooledBuf = 1 << 20

// takeBuf returns a buffer of n bytes, from the pool when n is small
// enough to be pooled.
func takeBuf(n uint64) *[]byte {
	if n > maxPooledBuf {
		b := make([]byte, n)
		return &b
	}
	bp := bufs.Get().(*[]byte)
	if uint64(cap(*bp)) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// releaseBuf returns a buffer to the pool unless it is too big to keep.
func releaseBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		bufs.Put(bp)
	}
}

// NewStore returns a store capping tracked partials at maxBytes of
// allocated payload (0 = unlimited).
func NewStore(maxBytes int64) *Store {
	return &Store{maxBytes: maxBytes, parts: make(map[model.PhotoID]*partial)}
}

// AddResult reports what one chunk did to the store.
type AddResult struct {
	// Fresh is true when the chunk was new — not a duplicate of one
	// already held. Only fresh chunks are worth journaling.
	Fresh bool
	// Restarted is true when the chunk's geometry contradicted an existing
	// partial (different chunk size, total, or payload CRC), which was
	// dropped — its bytes wasted — before this chunk started a new one.
	Restarted bool
	// Complete is true when every chunk is present and the whole-photo
	// checksum verified. Photo is set.
	Complete bool
	Photo    model.Photo
}

// Add unions one chunk into the photo's partial, creating it on first
// contact with the photo. Duplicate chunks are ignored (Fresh=false);
// conflicting geometry restarts the partial. When the final missing chunk
// lands, the assembled payload is verified against the declared CRC:
// success returns Complete, failure drops the partial and returns
// ErrChecksum.
func (s *Store) Add(c wire.Chunk) (AddResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var res AddResult
	p := s.parts[c.Photo.ID]
	if p != nil && !p.fits(c) {
		s.dropLocked(c.Photo.ID, true)
		s.restarts++
		res.Restarted = true
		p = nil
	}
	if p == nil {
		s.admitLocked(c.Photo.ID, int64(c.Total))
		p = &partial{
			photo:     c.Photo,
			chunkSize: c.ChunkSize,
			count:     c.Count,
			total:     c.Total,
			crc:       c.PayloadCRC,
			have:      make([]uint64, (int(c.Count)+63)/64),
			buf:       takeBuf(c.Total),
		}
		s.parts[c.Photo.ID] = p
		s.alloc += int64(c.Total)
	}
	s.seq++
	p.touched = s.seq
	word, bit := c.Index/64, c.Index%64
	if p.have[word]&(1<<bit) != 0 {
		return res, nil // duplicate
	}
	p.have[word] |= 1 << bit
	p.haveCount++
	off := uint64(c.Index) * uint64(c.ChunkSize)
	copy((*p.buf)[off:], c.Data)
	p.received += int64(len(c.Data))
	s.bytes += int64(len(c.Data))
	s.chunksAdded++
	res.Fresh = true
	if p.haveCount == p.count {
		if wire.PayloadCRC(*p.buf) != p.crc {
			s.dropLocked(c.Photo.ID, true)
			return res, fmt.Errorf("%w: photo %v", ErrChecksum, c.Photo.ID)
		}
		s.completed++
		res.Complete = true
		res.Photo = p.photo
	}
	return res, nil
}

// maxPlan bounds one Plan call, so its pairwise duplicate scan stays cheap
// whatever a batch holds.
const maxPlan = 64

// Plan reports, for chunks about to be added in order, which ones Add
// would take as fresh — for as long a prefix of cs as the store can tell
// without adding them. It appends one flag per chunk of that prefix to dst
// and returns it; the prefix holds at least one chunk when cs is not
// empty. The prefix ends after a chunk that restarts a partial or whose
// new partial may evict others, and before a chunk of a photo that an
// earlier chunk of the prefix completes (the checksum decides whether the
// partial survives), since those outcomes depend on the adds themselves.
//
// A caller that journals the fresh chunks of the prefix, then adds the
// prefix before planning the rest, writes exactly one record per chunk
// that Add reports fresh, in stream order.
func (s *Store) Plan(dst []bool, cs []wire.Chunk) []bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	// planned tracks each photo the prefix touches: the geometry its
	// chunks share, whether they join a held partial, and how many chunks
	// the photo will hold.
	type planned struct {
		first int // index in cs of the photo's first chunk
		base  *partial
		have  uint32
		done  bool
	}
	var buf [8]planned
	photos := buf[:0]
	alloc := s.alloc
	for i, c := range cs {
		if i == maxPlan {
			break
		}
		k := -1
		for j := range photos {
			if cs[photos[j].first].Photo.ID == c.Photo.ID {
				k = j
				break
			}
		}
		if k < 0 {
			base := s.parts[c.Photo.ID]
			switch {
			case base == nil:
				// A new partial: admitting it may evict others.
				if s.maxBytes > 0 && alloc+int64(c.Total) > s.maxBytes {
					return append(dst, true)
				}
				alloc += int64(c.Total)
			case !base.fits(c):
				return append(dst, true) // restart
			}
			photos = append(photos, planned{first: i, base: base})
			k = len(photos) - 1
			if base != nil {
				photos[k].have = base.haveCount
			}
		}
		pl := &photos[k]
		if pl.done {
			return dst
		}
		if first := cs[pl.first]; !sameGeometry(first, c) {
			return append(dst, true) // restarts the partial the prefix built
		}
		fresh := pl.base == nil || c.Index >= pl.base.count || pl.base.have[c.Index/64]&(1<<(c.Index%64)) == 0
		for _, prev := range cs[pl.first:i] {
			if prev.Photo.ID == c.Photo.ID && prev.Index == c.Index {
				fresh = false
				break
			}
		}
		dst = append(dst, fresh)
		if fresh {
			pl.have++
			pl.done = pl.have == c.Count
		}
	}
	return dst
}

// fits reports whether c shares the partial's geometry, so Add unions it
// instead of restarting the partial.
func (p *partial) fits(c wire.Chunk) bool {
	return p.chunkSize == c.ChunkSize && p.count == c.Count && p.total == c.Total && p.crc == c.PayloadCRC
}

// sameGeometry reports whether two chunks of one photo declare the same
// geometry.
func sameGeometry(a, b wire.Chunk) bool {
	return a.ChunkSize == b.ChunkSize && a.Count == b.Count && a.Total == b.Total && a.PayloadCRC == b.PayloadCRC
}

// admitLocked makes room for a new partial of the given footprint,
// evicting least-recently-touched partials when a cap is set. A single
// partial larger than the cap is still admitted — the cap bounds hoarding,
// not the protocol.
func (s *Store) admitLocked(id model.PhotoID, total int64) {
	if s.maxBytes <= 0 {
		return
	}
	for s.alloc+total > s.maxBytes && len(s.parts) > 0 {
		victim := model.PhotoID(0)
		var oldest int64
		for vid, vp := range s.parts {
			if vid == id {
				continue
			}
			if victim == 0 || vp.touched < oldest {
				victim, oldest = vid, vp.touched
			}
		}
		if victim == 0 {
			break
		}
		s.dropLocked(victim, true)
		s.evictions++
	}
}

// Has reports whether the photo's partial already holds the chunk.
func (s *Store) Has(id model.PhotoID, index uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.parts[id]
	if p == nil || index >= p.count {
		return false
	}
	return p.have[index/64]&(1<<(index%64)) != 0
}

// Assemble reports a photo whose partial is already complete — the
// zero-traffic path when a resume offer advertised a full bitmap. Add
// verified the payload when its last chunk landed.
func (s *Store) Assemble(id model.PhotoID) (AddResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.parts[id]
	if p == nil || p.haveCount != p.count {
		return AddResult{}, false
	}
	return AddResult{Complete: true, Photo: p.photo}, true
}

// Drop removes a photo's partial and recycles its buffer. Wasted marks
// bytes that were received but will never contribute to a delivery
// (discard, mismatch, eviction); a drop after successful admission passes
// wasted=false. Returns the number of fragment bytes released.
func (s *Store) Drop(id model.PhotoID, wasted bool) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropLocked(id, wasted)
}

func (s *Store) dropLocked(id model.PhotoID, wasted bool) int64 {
	p := s.parts[id]
	if p == nil {
		return 0
	}
	delete(s.parts, id)
	releaseBuf(p.buf)
	p.buf = nil
	s.bytes -= p.received
	s.alloc -= int64(p.total)
	if wasted {
		s.wasted += p.received
	}
	return p.received
}

// Offer returns the photo's partial state as a wire resume entry.
func (s *Store) Offer(id model.PhotoID) (wire.ResumeEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.parts[id]
	if p == nil {
		return wire.ResumeEntry{}, false
	}
	s.seq++
	p.touched = s.seq
	return wire.ResumeEntry{
		ID:         id,
		ChunkSize:  p.chunkSize,
		Count:      p.count,
		Total:      p.total,
		PayloadCRC: p.crc,
		Bitmap:     bitmapBytes(p.have, p.count),
	}, true
}

// Chunks returns how many chunks of the photo's partial have landed
// (0 when the photo is untracked) and the partial's chunk count.
func (s *Store) Chunks(id model.PhotoID) (have, count uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.parts[id]; p != nil {
		return p.haveCount, p.count
	}
	return 0, 0
}

// IDs returns the tracked photo IDs in unspecified order.
func (s *Store) IDs() []model.PhotoID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]model.PhotoID, 0, len(s.parts))
	for id := range s.parts {
		out = append(out, id)
	}
	return out
}

// Held returns every chunk the store holds, ordered by photo ID and then
// by index, with its data copied. Adding them to an empty store rebuilds
// the same partials; the peer's snapshot journals them that way.
func (s *Store) Held() []wire.Chunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]model.PhotoID, 0, len(s.parts))
	for id := range s.parts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []wire.Chunk
	for _, id := range ids {
		p := s.parts[id]
		for i := uint32(0); i < p.count; i++ {
			if p.have[i/64]&(1<<(i%64)) == 0 {
				continue
			}
			off := int64(i) * int64(p.chunkSize)
			out = append(out, wire.Chunk{
				Photo:      p.photo,
				Index:      i,
				Count:      p.count,
				ChunkSize:  p.chunkSize,
				Total:      p.total,
				PayloadCRC: p.crc,
				Data:       append([]byte(nil), (*p.buf)[off:off+chunkLen(i, p.count, p.chunkSize, p.total)]...),
			})
		}
	}
	return out
}

// Stats are the store's lifetime counters plus its current footprint.
type Stats struct {
	// Partials and FragmentBytes are the current footprint: tracked
	// photos and their received bytes.
	Partials      int
	FragmentBytes int64
	// ChunksAdded counts fresh chunks ever unioned in.
	ChunksAdded int64
	// Completed counts photos fully assembled and verified.
	Completed int64
	// Restarts counts partials dropped for conflicting geometry.
	Restarts int64
	// Evictions counts partials dropped to respect the byte cap.
	Evictions int64
	// WastedBytes counts received bytes that never contributed to a
	// delivery: mismatch restarts, evictions, and explicit wasted drops.
	WastedBytes int64
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Partials:      len(s.parts),
		FragmentBytes: s.bytes,
		ChunksAdded:   s.chunksAdded,
		Completed:     s.completed,
		Restarts:      s.restarts,
		Evictions:     s.evictions,
		WastedBytes:   s.wasted,
	}
}

// chunkLen is the payload length of chunk index in the given geometry.
func chunkLen(index, count, size uint32, total uint64) int64 {
	if index < count-1 {
		return int64(size)
	}
	return int64(total - uint64(count-1)*uint64(size))
}

// bitmapBytes converts LSB-first bitmap words to the wire's byte layout.
func bitmapBytes(words []uint64, count uint32) []byte {
	out := make([]byte, (int(count)+7)/8)
	for i := range out {
		word, shift := i/8, (i%8)*8
		out[i] = byte(words[word] >> shift)
	}
	return out
}

// bitmapWords converts the wire's bitmap bytes to LSB-first words.
func bitmapWords(b []byte, count uint32) []uint64 {
	out := make([]uint64, (int(count)+63)/64)
	for i, v := range b {
		out[i/8] |= uint64(v) << ((i % 8) * 8)
	}
	return out
}

// MissingChunks lists the chunk indices absent from a wire resume entry's
// bitmap, in ascending order — the sender's work list when resuming.
func MissingChunks(e wire.ResumeEntry) []uint32 {
	words := bitmapWords(e.Bitmap, e.Count)
	out := make([]uint32, 0, int(e.Count)-popcount(words))
	for i := uint32(0); i < e.Count; i++ {
		if words[i/64]&(1<<(i%64)) == 0 {
			out = append(out, i)
		}
	}
	return out
}

func popcount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}
