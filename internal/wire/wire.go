// Package wire defines the binary contact protocol two nodes speak when
// they meet — the live counterpart of the simulator's contact sessions and
// the transport the Android prototype would use over Bluetooth/Wi-Fi
// Direct.
//
// Every message is a frame:
//
//	[4-byte little-endian body length][1-byte message type][body]
//	[4-byte little-endian CRC-32C of type byte + body]
//
// The checksum trailer detects frames corrupted in flight (disaster-area
// radio links are lossy); Read rejects mismatches with ErrChecksum before
// any decoding happens. The declared body length is bounds-checked against
// MaxFrame before any allocation, so a hostile or corrupt length field
// cannot trigger huge allocations.
//
// Bodies are fixed layouts built from the model package's binary photo
// codec. The protocol is symmetric and runs in rounds; see package peer for
// the session that drives them.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"photodtn/internal/metadata"
	"photodtn/internal/model"
)

// MsgType discriminates protocol messages.
type MsgType uint8

// Message types.
const (
	// MsgHello opens a contact: identity, learned rate, delivery
	// probability, local time, and a nonce for deterministic joint
	// computations.
	MsgHello MsgType = iota + 1
	// MsgMetadata carries metadata cache entries (including the sender's
	// own collection as the first entry).
	MsgMetadata
	// MsgPhotoRequest asks the peer for the listed photos.
	MsgPhotoRequest
	// Tag 4 is reserved: it carried the retired whole-photo delivery
	// message. Keeping it unused pins every later tag's number; a frame
	// bearing it decodes as an unknown type.
	_
	// MsgAck acknowledges received photos (the command center's delivery
	// ACK).
	MsgAck
	// MsgBye closes the contact.
	MsgBye
	// MsgHelloAck answers a Hello: it carries the responder's identity
	// fields plus the negotiated transfer parameters.
	MsgHelloAck
	// MsgChunk delivers one slice of a photo's payload together with the
	// full photo metadata, so any holder can resume a partial transfer
	// started by another.
	MsgChunk
	// MsgChunkAck acknowledges one chunk; the sender uses it to clock its
	// transmission window.
	MsgChunkAck
	// MsgResumeOffer lists the receiver's partial reassembly state for the
	// photos it is about to request, so the sender skips chunks that
	// already landed in an earlier contact.
	MsgResumeOffer
	// MsgMetaSummary opens the metadata round: the snapshot timestamp of
	// every non-command-center entry the sender caches, so the peer's
	// Metadata can skip entries the sender already holds at least as new,
	// and the IDs of the photos the sender's command-center entry lists, so
	// the peer's command-center entries carry only the photos it lacks.
	MsgMetaSummary
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "Hello"
	case MsgMetadata:
		return "Metadata"
	case MsgPhotoRequest:
		return "PhotoRequest"
	case MsgAck:
		return "Ack"
	case MsgBye:
		return "Bye"
	case MsgHelloAck:
		return "HelloAck"
	case MsgChunk:
		return "Chunk"
	case MsgChunkAck:
		return "ChunkAck"
	case MsgResumeOffer:
		return "ResumeOffer"
	case MsgMetaSummary:
		return "MetaSummary"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// MaxFrame bounds a frame body; larger frames are rejected as corrupt.
const MaxFrame = 64 << 20

// Protocol errors.
var (
	ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrame")
	ErrBadMessage  = errors.New("wire: malformed message")
	ErrChecksum    = errors.New("wire: frame checksum mismatch")
)

// crcTable is the Castagnoli polynomial (hardware-accelerated on most
// platforms) used for the per-frame checksum.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// PayloadCRC is the whole-payload checksum carried by every Chunk: the
// same CRC-32C the frame trailer uses, over the fully assembled payload.
// Exported so the transfer store and the peer's send path share one
// definition.
func PayloadCRC(b []byte) uint32 {
	return crc32.Checksum(b, crcTable)
}

// Message is any protocol message.
type Message interface {
	// Type returns the message type tag.
	Type() MsgType
	// appendBody serialises the body.
	appendBody(dst []byte) []byte
}

// Hello opens a contact. Its body is a fixed 53 bytes: the 44-byte identity
// block followed by the transfer parameters ([version u16][chunk u32]
// [window u16][flags u8]). The version field always carries
// ProtocolVersion; a hello with any other version, or any other length, is
// malformed.
type Hello struct {
	Node model.NodeID
	// Lambda is the sender's learned aggregate contact rate λ (per second).
	Lambda float64
	// DeliveryProb is the sender's PROPHET probability of reaching the
	// command center.
	DeliveryProb float64
	// Time is the sender's clock in seconds.
	Time float64
	// Nonce seeds joint deterministic computations for this contact.
	Nonce uint64
	// Capacity is the sender's storage capacity in bytes.
	Capacity int64

	// ChunkSize is the sender's preferred chunk size in bytes.
	ChunkSize uint32
	// Window is the sender's preferred number of unacknowledged chunks in
	// flight.
	Window uint16
	// Flags carries transfer capability bits (FlagResume).
	Flags uint8
}

// Type implements Message.
func (Hello) Type() MsgType { return MsgHello }

const helloLen = 4 + 8*5 + 2 + 4 + 2 + 1

func (h Hello) appendBody(dst []byte) []byte {
	dst = appendU32(dst, uint32(h.Node))
	dst = appendF64(dst, h.Lambda)
	dst = appendF64(dst, h.DeliveryProb)
	dst = appendF64(dst, h.Time)
	dst = appendU64(dst, h.Nonce)
	dst = appendU64(dst, uint64(h.Capacity))
	dst = append(dst, byte(ProtocolVersion), byte(ProtocolVersion>>8))
	dst = appendU32(dst, h.ChunkSize)
	dst = append(dst, byte(h.Window), byte(h.Window>>8))
	return append(dst, h.Flags)
}

func decodeHello(b []byte) (Hello, error) {
	if len(b) != helloLen {
		return Hello{}, fmt.Errorf("%w: hello body %d bytes", ErrBadMessage, len(b))
	}
	if v := binary.LittleEndian.Uint16(b[44:]); v != ProtocolVersion {
		return Hello{}, fmt.Errorf("%w: hello version %d, want %d", ErrBadMessage, v, ProtocolVersion)
	}
	return Hello{
		Node:         model.NodeID(binary.LittleEndian.Uint32(b)),
		Lambda:       f64(b[4:]),
		DeliveryProb: f64(b[12:]),
		Time:         f64(b[20:]),
		Nonce:        binary.LittleEndian.Uint64(b[28:]),
		Capacity:     int64(binary.LittleEndian.Uint64(b[36:])),
		ChunkSize:    binary.LittleEndian.Uint32(b[46:]),
		Window:       binary.LittleEndian.Uint16(b[50:]),
		Flags:        b[52],
	}, nil
}

// HelloAck is the responder's half of the handshake: its own identity
// fields plus the negotiated (element-wise minimum) transfer parameters.
type HelloAck struct {
	Hello
}

// Type implements Message.
func (HelloAck) Type() MsgType { return MsgHelloAck }

// Metadata carries cache entries; by convention the sender's own collection
// is the first entry.
type Metadata struct {
	Entries []metadata.Entry
}

// Type implements Message.
func (Metadata) Type() MsgType { return MsgMetadata }

func (m Metadata) appendBody(dst []byte) []byte {
	dst = appendU32(dst, uint32(len(m.Entries)))
	for _, e := range m.Entries {
		dst = AppendMetaEntry(dst, e)
	}
	return dst
}

// AppendMetaEntry appends the binary encoding of one metadata entry (the
// element encoding of a Metadata body) to dst. It is exported so other
// durable encodings — the peer's write-ahead journal records — reuse the
// wire layout instead of inventing a second one.
func AppendMetaEntry(dst []byte, e metadata.Entry) []byte {
	dst = appendU32(dst, uint32(e.Node))
	dst = appendF64(dst, e.Lambda)
	dst = appendF64(dst, e.P)
	dst = appendF64(dst, e.Timestamp)
	return e.Photos.AppendBinary(dst)
}

// DecodeMetaEntry decodes one metadata entry from the front of b,
// returning the entry and the remaining bytes.
func DecodeMetaEntry(b []byte) (metadata.Entry, []byte, error) {
	if len(b) < 4+8*3 {
		return metadata.Entry{}, b, fmt.Errorf("%w: metadata entry header", ErrBadMessage)
	}
	e := metadata.Entry{
		Node:      model.NodeID(binary.LittleEndian.Uint32(b)),
		Lambda:    f64(b[4:]),
		P:         f64(b[12:]),
		Timestamp: f64(b[20:]),
	}
	var err error
	e.Photos, b, err = model.DecodePhotoList(b[28:])
	if err != nil {
		return metadata.Entry{}, b, fmt.Errorf("%w: metadata entry photos: %v", ErrBadMessage, err)
	}
	return e, b, nil
}

func decodeMetadata(b []byte) (Metadata, error) {
	if len(b) < 4 {
		return Metadata{}, fmt.Errorf("%w: metadata header", ErrBadMessage)
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	// Never trust the claimed count: each entry needs at least its fixed
	// header, so the body length bounds the real count. A claim the body
	// cannot possibly satisfy fails fast, before any entry decoding; the
	// same bound caps the allocation hint.
	const minEntry = 4 + 8*3 + 4
	if uint64(n)*minEntry > uint64(len(b)) {
		return Metadata{}, fmt.Errorf("%w: metadata claims %d entries with %d bytes", ErrBadMessage, n, len(b))
	}
	capHint := uint32(len(b) / minEntry)
	if n < capHint {
		capHint = n
	}
	out := Metadata{Entries: make([]metadata.Entry, 0, capHint)}
	for i := uint32(0); i < n; i++ {
		var (
			e   metadata.Entry
			err error
		)
		e, b, err = DecodeMetaEntry(b)
		if err != nil {
			return Metadata{}, fmt.Errorf("metadata entry %d: %w", i, err)
		}
		out.Entries = append(out.Entries, e)
	}
	if len(b) != 0 {
		return Metadata{}, fmt.Errorf("%w: %d trailing metadata bytes", ErrBadMessage, len(b))
	}
	return out, nil
}

// MetaSummary describes the sender's cache to the peer about to gossip to
// it. Entries lists the stamp (node and snapshot timestamp) of every
// non-command-center snapshot the sender caches, in strictly increasing
// node order, without their photos. Delivered lists, in strictly
// increasing order, the IDs of the photos the sender's command-center
// entry holds: the ack ledger the peer need not send again.
type MetaSummary struct {
	Entries   []metadata.Stamp
	Delivered []model.PhotoID
}

// Type implements Message.
func (MetaSummary) Type() MsgType { return MsgMetaSummary }

// summaryEntryLen is one pair's encoded size: node u32, timestamp f64.
const summaryEntryLen = 4 + 8

func (m MetaSummary) appendBody(dst []byte) []byte {
	dst = appendU32(dst, uint32(len(m.Entries)))
	for _, e := range m.Entries {
		dst = appendU32(dst, uint32(e.Node))
		dst = appendF64(dst, e.Timestamp)
	}
	return AppendPhotoIDs(dst, m.Delivered)
}

// decodeMetaSummary checks both claimed counts against the body length
// before allocating, rejects pairs whose node IDs go down and delivered IDs
// that do not go strictly up, and refuses trailing bytes. A repeated node
// decodes; rejecting it is the guard's job (a replayed entry).
func decodeMetaSummary(b []byte) (MetaSummary, error) {
	if len(b) < 4 {
		return MetaSummary{}, fmt.Errorf("%w: summary header", ErrBadMessage)
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(n)*summaryEntryLen+4 > uint64(len(b)) {
		return MetaSummary{}, fmt.Errorf("%w: summary claims %d entries with %d bytes", ErrBadMessage, n, len(b))
	}
	out := MetaSummary{Entries: make([]metadata.Stamp, n)}
	for i := range out.Entries {
		e := &out.Entries[i]
		e.Node = model.NodeID(binary.LittleEndian.Uint32(b[i*summaryEntryLen:]))
		e.Timestamp = f64(b[i*summaryEntryLen+4:])
		if i > 0 && e.Node < out.Entries[i-1].Node {
			return MetaSummary{}, fmt.Errorf("%w: summary node %v after %v", ErrBadMessage, e.Node, out.Entries[i-1].Node)
		}
	}
	ids, rest, err := DecodePhotoIDs(b[n*summaryEntryLen:])
	if err != nil {
		return MetaSummary{}, err
	}
	if len(rest) != 0 {
		return MetaSummary{}, fmt.Errorf("%w: %d trailing summary bytes", ErrBadMessage, len(rest))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return MetaSummary{}, fmt.Errorf("%w: summary delivered ID %v after %v", ErrBadMessage, ids[i], ids[i-1])
		}
	}
	out.Delivered = ids
	return out, nil
}

// PhotoRequest asks for photos by ID.
type PhotoRequest struct {
	IDs []model.PhotoID
}

// Type implements Message.
func (PhotoRequest) Type() MsgType { return MsgPhotoRequest }

func (r PhotoRequest) appendBody(dst []byte) []byte {
	return AppendPhotoIDs(dst, r.IDs)
}

// AppendPhotoIDs appends a count-prefixed photo-ID list (the PhotoRequest
// and Ack body encoding) to dst. Exported for reuse by the peer's journal
// records.
func AppendPhotoIDs(dst []byte, ids []model.PhotoID) []byte {
	dst = appendU32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = appendU64(dst, uint64(id))
	}
	return dst
}

// DecodePhotoIDs decodes a count-prefixed photo-ID list from the front of
// b, returning the list and the remaining bytes.
func DecodePhotoIDs(b []byte) ([]model.PhotoID, []byte, error) {
	if len(b) < 4 {
		return nil, b, fmt.Errorf("%w: id list header", ErrBadMessage)
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) < uint64(n)*8 {
		return nil, b, fmt.Errorf("%w: id list claims %d ids with %d bytes", ErrBadMessage, n, len(b))
	}
	out := make([]model.PhotoID, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, model.PhotoID(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out, b[8*n:], nil
}

func decodePhotoRequest(b []byte) (PhotoRequest, error) {
	ids, rest, err := DecodePhotoIDs(b)
	if err != nil {
		return PhotoRequest{}, err
	}
	if len(rest) != 0 {
		return PhotoRequest{}, fmt.Errorf("%w: %d trailing request bytes", ErrBadMessage, len(rest))
	}
	return PhotoRequest{IDs: ids}, nil
}

// Ack acknowledges photo receipt.
type Ack struct {
	IDs []model.PhotoID
}

// Type implements Message.
func (Ack) Type() MsgType { return MsgAck }

func (a Ack) appendBody(dst []byte) []byte {
	return PhotoRequest{IDs: a.IDs}.appendBody(dst)
}

// Bye closes the contact.
type Bye struct{}

// Type implements Message.
func (Bye) Type() MsgType { return MsgBye }

func (Bye) appendBody(dst []byte) []byte { return dst }

// MaxChunks bounds the chunk count a single photo may be split into; a
// hostile geometry claiming more is rejected before any bitmap allocation.
const MaxChunks = 1 << 24

// chunkCount returns the canonical number of chunks for a payload of total
// bytes at the given chunk size: ceil(total/size), but at least one (an
// empty payload still travels as a single empty chunk carrying the
// metadata).
func chunkCount(total uint64, size uint32) uint64 {
	if total == 0 || size == 0 {
		return 1
	}
	n := total / uint64(size)
	if total%uint64(size) != 0 {
		n++
	}
	return n
}

// ChunkCount is chunkCount for callers outside the package (the transfer
// store and the peer's send planner share the wire's geometry).
func ChunkCount(total int64, size int) int {
	if total < 0 {
		return 1
	}
	return int(chunkCount(uint64(total), uint32(size)))
}

// chunkGeometry validates the shared (index, count, size, total) header of
// chunks and resume entries: the count must be the canonical chunk count
// for the claimed total, and bounded by MaxChunks.
func chunkGeometry(count, size uint32, total uint64) error {
	if size == 0 {
		return fmt.Errorf("%w: zero chunk size", ErrBadMessage)
	}
	if count == 0 || uint64(count) > MaxChunks {
		return fmt.Errorf("%w: chunk count %d", ErrBadMessage, count)
	}
	if want := chunkCount(total, size); uint64(count) != want {
		return fmt.Errorf("%w: %d chunks for %d bytes at size %d (want %d)",
			ErrBadMessage, count, total, size, want)
	}
	return nil
}

// chunkDataLen returns the exact payload length of chunk index within the
// given geometry: full chunks except for the (possibly short) final one.
func chunkDataLen(index, count, size uint32, total uint64) uint64 {
	if index < count-1 {
		return uint64(size)
	}
	return total - uint64(count-1)*uint64(size)
}

// Chunk delivers one slice of a photo's payload. Every chunk carries the
// full photo metadata and transfer geometry, so a receiver can start — or
// resume — reassembly from any chunk arriving from any holder, across
// contacts. PayloadCRC is the CRC-32C of the *whole* assembled payload;
// the receiver admits the photo only after the final chunk lands and the
// checksum verifies.
type Chunk struct {
	Photo model.Photo
	// Index is this chunk's position, 0-based.
	Index uint32
	// Count is the total number of chunks (canonical for Total/ChunkSize).
	Count uint32
	// ChunkSize is the transfer's chunk size in bytes.
	ChunkSize uint32
	// Total is the whole payload length in bytes.
	Total uint64
	// PayloadCRC is the CRC-32C (Castagnoli) of the whole payload.
	PayloadCRC uint32
	// Data is this chunk's slice of the payload.
	Data []byte
}

// Type implements Message.
func (Chunk) Type() MsgType { return MsgChunk }

func (c Chunk) appendBody(dst []byte) []byte { return AppendChunk(dst, c) }

// AppendChunk appends the binary encoding of one chunk (the MsgChunk body)
// to dst. Exported so the peer's fragment journal records reuse the wire
// layout, exactly as AppendMetaEntry does for metadata.
func AppendChunk(dst []byte, c Chunk) []byte {
	dst = c.Photo.AppendBinary(dst)
	dst = appendU32(dst, c.Index)
	dst = appendU32(dst, c.Count)
	dst = appendU32(dst, c.ChunkSize)
	dst = appendU64(dst, c.Total)
	dst = appendU32(dst, c.PayloadCRC)
	return append(dst, c.Data...)
}

// DecodeChunk decodes one chunk from b, validating the transfer geometry:
// the count must be canonical for (Total, ChunkSize), the index in range,
// and the data length exactly the slice the geometry dictates. The chunk's
// Data is a copy: it never aliases b.
func DecodeChunk(b []byte) (Chunk, error) { return decodeChunk(b, false) }

// decodeChunk is DecodeChunk; with alias set, a non-empty Data is the
// slice of b that carries it instead of a copy.
func decodeChunk(b []byte, alias bool) (Chunk, error) {
	photo, rest, err := model.DecodePhoto(b)
	if err != nil {
		return Chunk{}, fmt.Errorf("%w: chunk photo: %v", ErrBadMessage, err)
	}
	if len(rest) < 4+4+4+8+4 {
		return Chunk{}, fmt.Errorf("%w: chunk header", ErrBadMessage)
	}
	c := Chunk{
		Photo:      photo,
		Index:      binary.LittleEndian.Uint32(rest),
		Count:      binary.LittleEndian.Uint32(rest[4:]),
		ChunkSize:  binary.LittleEndian.Uint32(rest[8:]),
		Total:      binary.LittleEndian.Uint64(rest[12:]),
		PayloadCRC: binary.LittleEndian.Uint32(rest[20:]),
	}
	rest = rest[24:]
	if err := chunkGeometry(c.Count, c.ChunkSize, c.Total); err != nil {
		return Chunk{}, err
	}
	if c.Index >= c.Count {
		return Chunk{}, fmt.Errorf("%w: chunk index %d of %d", ErrBadMessage, c.Index, c.Count)
	}
	if want := chunkDataLen(c.Index, c.Count, c.ChunkSize, c.Total); uint64(len(rest)) != want {
		return Chunk{}, fmt.Errorf("%w: chunk %d carries %d bytes, want %d",
			ErrBadMessage, c.Index, len(rest), want)
	}
	switch {
	case len(rest) == 0:
	case alias:
		c.Data = rest[:len(rest):len(rest)]
	default:
		c.Data = append([]byte(nil), rest...)
	}
	return c, nil
}

// ChunkAck acknowledges one received (and durably recorded) chunk; the
// sender clocks its window off these.
type ChunkAck struct {
	ID    model.PhotoID
	Index uint32
}

// Type implements Message.
func (ChunkAck) Type() MsgType { return MsgChunkAck }

func (a ChunkAck) appendBody(dst []byte) []byte {
	dst = appendU64(dst, uint64(a.ID))
	return appendU32(dst, a.Index)
}

func decodeChunkAck(b []byte) (ChunkAck, error) {
	if len(b) != 12 {
		return ChunkAck{}, fmt.Errorf("%w: chunk ack body %d bytes", ErrBadMessage, len(b))
	}
	return ChunkAck{
		ID:    model.PhotoID(binary.LittleEndian.Uint64(b)),
		Index: binary.LittleEndian.Uint32(b[8:]),
	}, nil
}

// ResumeEntry is one photo's partial reassembly state: which chunks of
// which geometry the receiver already holds. The sender resumes from the
// complement iff its own payload matches the recorded (Total, PayloadCRC);
// otherwise it restarts from chunk zero with fresh geometry.
type ResumeEntry struct {
	ID         model.PhotoID
	ChunkSize  uint32
	Count      uint32
	Total      uint64
	PayloadCRC uint32
	// Bitmap has bit i (LSB-first within each byte) set iff chunk i is
	// already held; its length is exactly ceil(Count/8) with the trailing
	// slack bits zero.
	Bitmap []byte
}

// AppendResumeEntry appends the binary encoding of one resume entry (the
// element encoding of a ResumeOffer body) to dst.
func AppendResumeEntry(dst []byte, e ResumeEntry) []byte {
	dst = appendU64(dst, uint64(e.ID))
	dst = appendU32(dst, e.ChunkSize)
	dst = appendU32(dst, e.Count)
	dst = appendU64(dst, e.Total)
	dst = appendU32(dst, e.PayloadCRC)
	return append(dst, e.Bitmap...)
}

// DecodeResumeEntry decodes one resume entry from the front of b,
// returning the entry and the remaining bytes.
func DecodeResumeEntry(b []byte) (ResumeEntry, []byte, error) {
	if len(b) < 8+4+4+8+4 {
		return ResumeEntry{}, b, fmt.Errorf("%w: resume entry header", ErrBadMessage)
	}
	e := ResumeEntry{
		ID:         model.PhotoID(binary.LittleEndian.Uint64(b)),
		ChunkSize:  binary.LittleEndian.Uint32(b[8:]),
		Count:      binary.LittleEndian.Uint32(b[12:]),
		Total:      binary.LittleEndian.Uint64(b[16:]),
		PayloadCRC: binary.LittleEndian.Uint32(b[24:]),
	}
	b = b[28:]
	if err := chunkGeometry(e.Count, e.ChunkSize, e.Total); err != nil {
		return ResumeEntry{}, b, err
	}
	n := (int(e.Count) + 7) / 8
	if len(b) < n {
		return ResumeEntry{}, b, fmt.Errorf("%w: resume bitmap %d bytes, want %d", ErrBadMessage, len(b), n)
	}
	e.Bitmap = append([]byte(nil), b[:n]...)
	if slack := uint(n*8) - uint(e.Count); slack > 0 {
		if e.Bitmap[n-1]>>(8-slack) != 0 {
			return ResumeEntry{}, b, fmt.Errorf("%w: resume bitmap slack bits set", ErrBadMessage)
		}
	}
	return e, b[n:], nil
}

// ResumeOffer lists the receiver's partial state for photos it is about to
// receive. Sent by the requester immediately after its PhotoRequest (and
// by the command center in reply to an upload announcement).
type ResumeOffer struct {
	Entries []ResumeEntry
}

// Type implements Message.
func (ResumeOffer) Type() MsgType { return MsgResumeOffer }

func (o ResumeOffer) appendBody(dst []byte) []byte {
	dst = appendU32(dst, uint32(len(o.Entries)))
	for _, e := range o.Entries {
		dst = AppendResumeEntry(dst, e)
	}
	return dst
}

func decodeResumeOffer(b []byte) (ResumeOffer, error) {
	if len(b) < 4 {
		return ResumeOffer{}, fmt.Errorf("%w: resume offer header", ErrBadMessage)
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	// As with metadata, the claimed count never drives allocation, and an
	// impossible claim fails before any entry decoding: each entry needs
	// at least its fixed header plus one bitmap byte.
	const minEntry = 28 + 1
	if uint64(n)*minEntry > uint64(len(b)) {
		return ResumeOffer{}, fmt.Errorf("%w: offer claims %d entries with %d bytes", ErrBadMessage, n, len(b))
	}
	capHint := uint32(len(b) / minEntry)
	if n < capHint {
		capHint = n
	}
	out := ResumeOffer{Entries: make([]ResumeEntry, 0, capHint)}
	for i := uint32(0); i < n; i++ {
		var (
			e   ResumeEntry
			err error
		)
		e, b, err = DecodeResumeEntry(b)
		if err != nil {
			return ResumeOffer{}, fmt.Errorf("resume entry %d: %w", i, err)
		}
		out.Entries = append(out.Entries, e)
	}
	if len(b) != 0 {
		return ResumeOffer{}, fmt.Errorf("%w: %d trailing offer bytes", ErrBadMessage, len(b))
	}
	return out, nil
}

// framePool recycles the buffers Write builds frames in, across every
// connection of the process: an io.Writer must not retain the slice it is
// handed, so a buffer is free again once its Write returns. A buffer that grew past
// maxPooledFrame is left to the collector.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 1 << 20

// Write serialises one message as a frame (with its checksum trailer).
// Header, body, and trailer go out in a single Write call: one syscall per
// frame, and no zero-length body writes (which block forever on fully
// synchronous transports like net.Pipe).
func Write(w io.Writer, msg Message) error {
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	frame := msg.appendBody(append((*bp)[:0], 0, 0, 0, 0, 0))
	if cap(frame) <= maxPooledFrame {
		*bp = frame
	}
	body := len(frame) - 5
	if body > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, body)
	}
	binary.LittleEndian.PutUint32(frame[:4], uint32(body))
	frame[4] = byte(msg.Type())
	frame = appendU32(frame, crc32.Checksum(frame[4:], crcTable))
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// Read decodes the next frame, verifying its checksum before any decoding.
// The declared length is validated against MaxFrame before allocating.
func Read(r io.Reader) (Message, error) {
	msg, _, err := ReadInto(r, nil)
	return msg, err
}

// ReadInto is Read with the frame read into buf's storage, grown when the
// frame does not fit; it returns the buffer for the caller's next read. No
// decoded message aliases its frame, so a receiver reading frame after
// frame can reuse one buffer for all of them. ReadIntoAliased is the
// variant whose chunks skip the copy of their data.
func ReadInto(r io.Reader, buf []byte) (Message, []byte, error) {
	return readInto(r, buf, false)
}

// ReadIntoAliased is ReadInto, except that a decoded Chunk's Data aliases
// the returned buffer instead of owning a copy. The chunk's bytes stay
// valid until that buffer is read into again; a caller that must hold
// several chunks at once reads each into a buffer of its own. Every other
// message owns its bytes, exactly as ReadInto's do.
func ReadIntoAliased(r io.Reader, buf []byte) (Message, []byte, error) {
	return readInto(r, buf, true)
}

func readInto(r io.Reader, buf []byte, alias bool) (Message, []byte, error) {
	if cap(buf) < 5 {
		buf = make([]byte, 5)
	}
	buf = buf[:5]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, fmt.Errorf("wire: read header: %w", err)
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > MaxFrame {
		return nil, buf, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	end := 5 + int(n) // body, then the checksum trailer
	if cap(buf) < end+4 {
		buf = append(make([]byte, 0, end+4), buf...)
	}
	buf = buf[:end+4]
	if _, err := io.ReadFull(r, buf[5:]); err != nil {
		return nil, buf, fmt.Errorf("wire: read body: %w", err)
	}
	sum := crc32.Checksum(buf[4:end], crcTable)
	if got := binary.LittleEndian.Uint32(buf[end:]); got != sum {
		return nil, buf, fmt.Errorf("%w: got %08x, computed %08x", ErrChecksum, got, sum)
	}
	if alias && MsgType(buf[4]) == MsgChunk {
		msg, err := retErr(decodeChunk(buf[5:end], true))
		return msg, buf, err
	}
	msg, err := DecodeBody(MsgType(buf[4]), buf[5:end])
	return msg, buf, err
}

// Arrived reports whether r's buffer already holds one whole frame, so
// that Read(r) returns without reading from r's source. A receiver uses
// it to take every frame that has landed without blocking for more.
func Arrived(r *bufio.Reader) bool {
	if r.Buffered() < 5 {
		return false
	}
	hdr, err := r.Peek(5)
	if err != nil {
		return false
	}
	return uint64(r.Buffered()) >= 5+uint64(binary.LittleEndian.Uint32(hdr))+4
}

// DecodeBody decodes a message body of the given type — the frame-free
// half of Read, exported so checksummed containers other than the stream
// framing (journal records, fuzzers) can reuse the message codecs. It
// never panics on malformed input; it returns ErrBadMessage instead.
func DecodeBody(t MsgType, body []byte) (Message, error) {
	switch t {
	case MsgHello:
		return retErr(decodeHello(body))
	case MsgMetadata:
		return retErr(decodeMetadata(body))
	case MsgPhotoRequest:
		return retErr(decodePhotoRequest(body))
	case MsgAck:
		req, err := decodePhotoRequest(body)
		if err != nil {
			return nil, err
		}
		return Ack{IDs: req.IDs}, nil
	case MsgBye:
		if len(body) != 0 {
			return nil, fmt.Errorf("%w: bye with body", ErrBadMessage)
		}
		return Bye{}, nil
	case MsgHelloAck:
		h, err := decodeHello(body)
		if err != nil {
			return nil, err
		}
		return HelloAck{Hello: h}, nil
	case MsgChunk:
		return retErr(DecodeChunk(body))
	case MsgChunkAck:
		return retErr(decodeChunkAck(body))
	case MsgResumeOffer:
		return retErr(decodeResumeOffer(body))
	case MsgMetaSummary:
		return retErr(decodeMetaSummary(body))
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadMessage, t)
	}
}

// retErr adapts a concrete (value, error) pair to (Message, error).
func retErr[M Message](m M, err error) (Message, error) {
	if err != nil {
		return nil, err
	}
	return m, nil
}

func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

func f64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
