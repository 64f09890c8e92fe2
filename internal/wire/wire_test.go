package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"photodtn/internal/geo"
	"photodtn/internal/metadata"
	"photodtn/internal/model"
)

func samplePhoto(owner model.NodeID, seq uint32) model.Photo {
	return model.Photo{
		ID: model.MakePhotoID(owner, seq), Owner: owner,
		TakenAt: 3.5, Location: geo.Vec{X: 1, Y: 2},
		Range: 100, FOV: 1, Orientation: 2, Size: 4 << 20,
	}
}

func roundTrip(t *testing.T, msg Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left after read", buf.Len())
	}
	return got
}

func TestHelloRoundTrip(t *testing.T) {
	msg := Hello{Node: 7, Lambda: 0.001, DeliveryProb: 0.4, Time: 1234.5, Nonce: 0xDEADBEEF, Capacity: 5 << 30}
	if got := roundTrip(t, msg); got != msg {
		t.Fatalf("got %+v", got)
	}
}

func TestHelloExtendedRoundTrip(t *testing.T) {
	msg := Hello{
		Node: 7, Lambda: 0.001, DeliveryProb: 0.4, Time: 1234.5, Nonce: 0xDEADBEEF, Capacity: 5 << 30,
		ChunkSize: 128 << 10, Window: 4, Flags: FlagResume,
	}
	if got := roundTrip(t, msg); got != msg {
		t.Fatalf("got %+v", got)
	}
	ack := HelloAck{Hello: msg}
	if got := roundTrip(t, ack); got != ack {
		t.Fatalf("ack: got %+v", got)
	}
}

// TestHelloRejectsOtherVersions pins the one-version handshake: a hello (or
// hello ack) must be exactly 53 bytes and carry ProtocolVersion. The retired
// 44-byte hello and any other version number are malformed, not downgraded.
func TestHelloRejectsOtherVersions(t *testing.T) {
	body := Hello{Node: 7, Nonce: 3, ChunkSize: 64 << 10, Window: 8}.appendBody(nil)
	withVersion := func(v uint16) []byte {
		b := append([]byte(nil), body...)
		binary.LittleEndian.PutUint16(b[44:], v)
		return b
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"44-byte hello", body[:44]},
		{"version 1", withVersion(1)},
		{"version 2", withVersion(2)},
		{"version 3", withVersion(3)},
		{"version 5", withVersion(5)},
		{"trailing byte", append(append([]byte(nil), body...), 0)},
	}
	for _, tc := range cases {
		for _, typ := range []MsgType{MsgHello, MsgHelloAck} {
			if _, err := Read(bytes.NewReader(reframe(typ, tc.body))); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("%s as %v: err = %v, want ErrBadMessage", tc.name, typ, err)
			}
		}
	}
	if _, err := DecodeBody(MsgHello, withVersion(ProtocolVersion)); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
}

// TestReservedTypeFour pins that the retired whole-photo message's tag stays
// reserved: a well-formed frame bearing type 4 — even one carrying the old
// photo-plus-payload body — decodes as an unknown type.
func TestReservedTypeFour(t *testing.T) {
	oldBody := appendU32(samplePhoto(3, 9).AppendBinary(nil), 0)
	_, err := Read(bytes.NewReader(reframe(MsgType(4), oldBody)))
	if !errors.Is(err, ErrBadMessage) || !strings.Contains(err.Error(), "unknown type 4") {
		t.Fatalf("err = %v, want ErrBadMessage for unknown type 4", err)
	}
	if MsgAck != 5 || MsgResumeOffer != 10 || MsgMetaSummary != 11 {
		t.Fatalf("message tags moved: Ack=%d ResumeOffer=%d MetaSummary=%d", MsgAck, MsgResumeOffer, MsgMetaSummary)
	}
}

// TestWriteAllocs pins Write's steady state: a frame is built in a pooled
// buffer, so writing a 16 KiB chunk frame or a hello allocates nothing once
// the pool holds a buffer that fits. The messages are boxed outside the
// measured function, as a sender's interface value would be.
func TestWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	data := make([]byte, 16<<10)
	cases := []struct {
		name string
		msg  Message
	}{
		{"chunk", Chunk{Photo: samplePhoto(3, 9), Index: 1, Count: 4, ChunkSize: uint32(len(data)),
			Total: 4 * uint64(len(data)), PayloadCRC: 0xCAFE, Data: data}},
		{"hello", Hello{Node: 7, Lambda: 0.001, DeliveryProb: 0.4, Time: 1234.5, Nonce: 1,
			Capacity: 5 << 30, ChunkSize: 64 << 10, Window: 8, Flags: FlagResume}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(100, func() {
				if err := Write(io.Discard, tc.msg); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("Write(%v) allocated %v times per frame, want 0", tc.msg.Type(), allocs)
			}
		})
	}
}

// TestFrameGolden pins the exact bytes of the frames two current peers
// exchange, so a codec refactor cannot silently change the wire.
func TestFrameGolden(t *testing.T) {
	cases := []struct {
		msg Message
		hex string
	}{
		{Hello{
			Node: 7, Lambda: 0.001, DeliveryProb: 0.4, Time: 1234.5, Nonce: 0xDEADBEEF, Capacity: 5 << 30,
			ChunkSize: 64 << 10, Window: 8, Flags: FlagResume,
		}, "350000000107000000fca9f1d24d62503f9a9999999999d93f00000000004a9340efbeadde00000000000000400100000004000000010008000136e7e3c9"},
		{HelloAck{Hello: Hello{
			Node: 2, Lambda: 0.25, DeliveryProb: 1, Time: 99, Nonce: 22, Capacity: 1 << 20,
			ChunkSize: 32 << 10, Window: 4,
		}}, "350000000702000000000000000000d03f000000000000f03f0000000000c05840160000000000000000001000000000000400008000000400004960f8c0"},
		{MetaSummary{
			Entries:   []metadata.Stamp{{Node: 3, Timestamp: 1234.5}, {Node: 9, Timestamp: -2}},
			Delivered: []model.PhotoID{model.MakePhotoID(3, 9), model.MakePhotoID(4, 0)},
		}, "300000000b020000000300000000000000004a93400900000000000000000000c002000000090000000300000000000000040000003b5b7b50"},
		{Chunk{
			Photo: samplePhoto(3, 9), Index: 1, Count: 3, ChunkSize: 4,
			Total: 11, PayloadCRC: 0xCAFE, Data: []byte{4, 5, 6, 7},
		}, "a8000000080900000003000000030000000000000000000c40000000000000f03f00000000000000400000000000005940000000000000f03f000000000000004000004000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000100000003000000040000000b00000000000000feca000004050607d9fbad0b"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := Write(&buf, tc.msg); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != tc.hex {
			t.Fatalf("%v frame\n got %s\nwant %s", tc.msg.Type(), got, tc.hex)
		}
	}
}

func TestChunkRoundTrip(t *testing.T) {
	msg := Chunk{
		Photo: samplePhoto(3, 9), Index: 1, Count: 3, ChunkSize: 4,
		Total: 11, PayloadCRC: 0xCAFE, Data: []byte{4, 5, 6, 7},
	}
	got := roundTrip(t, msg).(Chunk)
	if got.Photo != msg.Photo || got.Index != 1 || got.Count != 3 ||
		got.ChunkSize != 4 || got.Total != 11 || got.PayloadCRC != 0xCAFE ||
		!bytes.Equal(got.Data, msg.Data) {
		t.Fatalf("got %+v", got)
	}
	// Final (short) chunk and an empty single-chunk payload.
	last := Chunk{Photo: samplePhoto(3, 9), Index: 2, Count: 3, ChunkSize: 4, Total: 11, Data: []byte{8, 9, 10}}
	if got := roundTrip(t, last).(Chunk); !bytes.Equal(got.Data, last.Data) {
		t.Fatalf("final chunk: got %+v", got)
	}
	empty := Chunk{Photo: samplePhoto(3, 9), Index: 0, Count: 1, ChunkSize: 4, Total: 0}
	if got := roundTrip(t, empty).(Chunk); len(got.Data) != 0 {
		t.Fatalf("empty chunk: got %+v", got)
	}
}

func TestDecodeChunkRejectsBadGeometry(t *testing.T) {
	bad := []Chunk{
		{Photo: samplePhoto(1, 0), Index: 0, Count: 2, ChunkSize: 4, Total: 11, Data: []byte{1, 2, 3, 4}}, // count not canonical
		{Photo: samplePhoto(1, 0), Index: 3, Count: 3, ChunkSize: 4, Total: 11, Data: []byte{1, 2, 3}},    // index out of range
		{Photo: samplePhoto(1, 0), Index: 0, Count: 3, ChunkSize: 4, Total: 11, Data: []byte{1, 2}},       // short non-final chunk
		{Photo: samplePhoto(1, 0), Index: 0, Count: 1, ChunkSize: 0, Total: 0, Data: nil},                 // zero chunk size
	}
	for i, c := range bad {
		body := AppendChunk(nil, c)
		if _, err := DecodeChunk(body); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("case %d: err = %v, want ErrBadMessage", i, err)
		}
	}
}

func TestChunkAckRoundTrip(t *testing.T) {
	msg := ChunkAck{ID: model.MakePhotoID(4, 2), Index: 17}
	if got := roundTrip(t, msg); got != msg {
		t.Fatalf("got %+v", got)
	}
}

func TestMetaSummaryRoundTrip(t *testing.T) {
	msg := MetaSummary{
		Entries:   []metadata.Stamp{{Node: 1, Timestamp: 5}, {Node: 1, Timestamp: 4}, {Node: 8, Timestamp: -3}},
		Delivered: []model.PhotoID{0, model.MakePhotoID(1, 7), model.MakePhotoID(8, 0), math.MaxUint64},
	}
	got := roundTrip(t, msg).(MetaSummary)
	if !slices.Equal(got.Entries, msg.Entries) || !slices.Equal(got.Delivered, msg.Delivered) {
		t.Fatalf("got %+v, want %+v", got, msg)
	}
	if got := roundTrip(t, MetaSummary{}).(MetaSummary); len(got.Entries) != 0 || len(got.Delivered) != 0 {
		t.Fatalf("empty summary decoded %+v", got)
	}
}

func TestResumeOfferRoundTrip(t *testing.T) {
	msg := ResumeOffer{Entries: []ResumeEntry{
		{ID: model.MakePhotoID(1, 0), ChunkSize: 4, Count: 3, Total: 11, PayloadCRC: 7, Bitmap: []byte{0b101}},
		{ID: model.MakePhotoID(2, 5), ChunkSize: 8, Count: 9, Total: 65, PayloadCRC: 9, Bitmap: []byte{0xFF, 0b1}},
	}}
	got := roundTrip(t, msg).(ResumeOffer)
	if len(got.Entries) != 2 {
		t.Fatalf("entries = %d", len(got.Entries))
	}
	for i := range msg.Entries {
		w, g := msg.Entries[i], got.Entries[i]
		if g.ID != w.ID || g.ChunkSize != w.ChunkSize || g.Count != w.Count ||
			g.Total != w.Total || g.PayloadCRC != w.PayloadCRC || !bytes.Equal(g.Bitmap, w.Bitmap) {
			t.Fatalf("entry %d: got %+v want %+v", i, g, w)
		}
	}
	// Slack bits beyond Count must be zero.
	bad := AppendResumeEntry(nil, ResumeEntry{
		ID: 1, ChunkSize: 4, Count: 3, Total: 11, PayloadCRC: 0, Bitmap: []byte{0b1000},
	})
	bad = append([]byte{1, 0, 0, 0}, bad...)
	if _, err := DecodeBody(MsgResumeOffer, bad); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("slack bits: err = %v, want ErrBadMessage", err)
	}
	if len(roundTrip(t, ResumeOffer{}).(ResumeOffer).Entries) != 0 {
		t.Fatal("empty offer grew entries")
	}
}

func TestMetadataRoundTrip(t *testing.T) {
	msg := Metadata{Entries: []metadata.Entry{
		{Node: 1, Lambda: 0.01, P: 0.5, Timestamp: 10, Photos: model.PhotoList{samplePhoto(1, 0), samplePhoto(1, 1)}},
		{Node: 2, Lambda: 0.02, P: 0.6, Timestamp: 20, Photos: nil},
	}}
	got := roundTrip(t, msg).(Metadata)
	if len(got.Entries) != 2 {
		t.Fatalf("entries = %d", len(got.Entries))
	}
	if got.Entries[0].Node != 1 || len(got.Entries[0].Photos) != 2 || got.Entries[0].Photos[1] != samplePhoto(1, 1) {
		t.Fatalf("entry 0 = %+v", got.Entries[0])
	}
	if got.Entries[1].P != 0.6 || len(got.Entries[1].Photos) != 0 {
		t.Fatalf("entry 1 = %+v", got.Entries[1])
	}
}

func TestPhotoRequestRoundTrip(t *testing.T) {
	msg := PhotoRequest{IDs: []model.PhotoID{1, 99, model.MakePhotoID(5, 7)}}
	got := roundTrip(t, msg).(PhotoRequest)
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("got %+v", got)
	}
	empty := roundTrip(t, PhotoRequest{}).(PhotoRequest)
	if len(empty.IDs) != 0 {
		t.Fatal("empty request round trip failed")
	}
}

func TestAckAndByeRoundTrip(t *testing.T) {
	ack := roundTrip(t, Ack{IDs: []model.PhotoID{42}}).(Ack)
	if len(ack.IDs) != 1 || ack.IDs[0] != 42 {
		t.Fatalf("ack = %+v", ack)
	}
	if _, ok := roundTrip(t, Bye{}).(Bye); !ok {
		t.Fatal("bye round trip failed")
	}
}

func TestMessageStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		Hello{Node: 1, Nonce: 5},
		Metadata{Entries: []metadata.Entry{{Node: 1, Photos: model.PhotoList{samplePhoto(1, 0)}}}},
		PhotoRequest{IDs: []model.PhotoID{7}},
		Chunk{Photo: samplePhoto(2, 0), Count: 1, ChunkSize: 1024, Total: 1024, Data: bytes.Repeat([]byte{0xAB}, 1024)},
		Ack{IDs: []model.PhotoID{7}},
		Bye{},
	}
	for _, m := range msgs {
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("message %d: type %v, want %v", i, got.Type(), want.Type())
		}
	}
	if _, err := Read(&buf); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReadRejectsCorruptFrames(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{"unknown type", []byte{0, 0, 0, 0, 99}},
		{"hello short body", []byte{2, 0, 0, 0, byte(MsgHello), 1, 2}},
		{"bye with body", []byte{1, 0, 0, 0, byte(MsgBye), 0}},
		{"oversize frame", []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgHello)}},
		{"truncated header", []byte{1, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Read(bytes.NewReader(tt.data)); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

// reframe rebuilds a syntactically valid frame (length and checksum fixed
// up) around the given type and body, so tests reach the body decoders.
func reframe(typ MsgType, body []byte) []byte {
	frame := make([]byte, 5, 5+len(body)+4)
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(body)))
	frame[4] = byte(typ)
	frame = append(frame, body...)
	return appendU32(frame, crc32.Checksum(frame[4:], crcTable))
}

func TestReadRejectsCorruptBodies(t *testing.T) {
	// A metadata message whose inner photo list is truncated; the checksum
	// is valid so the failure must come from the body decoder.
	var buf bytes.Buffer
	if err := Write(&buf, Metadata{Entries: []metadata.Entry{{Node: 1, Photos: model.PhotoList{samplePhoto(1, 0)}}}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	corrupted := reframe(MsgMetadata, data[5:len(data)-4-10])
	if _, err := Read(bytes.NewReader(corrupted)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

func TestChecksumDetectsBitFlips(t *testing.T) {
	// Flipping any single byte of an encoded frame must make Read fail:
	// length flips starve or shorten the read, type and body flips break
	// the checksum, trailer flips mismatch the computed sum.
	var buf bytes.Buffer
	if err := Write(&buf, Hello{Node: 3, Lambda: 0.5, DeliveryProb: 0.25, Time: 99, Nonce: 7, Capacity: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for i := range frame {
		mutated := append([]byte(nil), frame...)
		mutated[i] ^= 0x01
		if msg, err := Read(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("flip at byte %d decoded silently as %v", i, msg.Type())
		}
	}
	// The pristine frame still decodes.
	if _, err := Read(bytes.NewReader(frame)); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
}

func TestChecksumMismatchError(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Bye{}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	frame[len(frame)-1] ^= 0xFF
	if _, err := Read(bytes.NewReader(frame)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestReadRejectsOversizeLengthBeforeAllocating(t *testing.T) {
	// A declared length just past MaxFrame must be rejected from the
	// 5-byte header alone — no body bytes are consumed or allocated.
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(MaxFrame+1))
	hdr[4] = byte(MsgChunk)
	r := bytes.NewReader(hdr[:])
	if _, err := Read(r); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d unread bytes — header not fully consumed", r.Len())
	}
	// Exactly MaxFrame is allowed through to the (starved) body read.
	binary.LittleEndian.PutUint32(hdr[:4], uint32(MaxFrame))
	if _, err := Read(bytes.NewReader(hdr[:])); errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("MaxFrame-sized declaration wrongly rejected: %v", err)
	}
}

func TestReadRejectsTruncatedPayload(t *testing.T) {
	// A Chunk frame cut short mid-payload (valid header, missing tail).
	var buf bytes.Buffer
	chunk := Chunk{Photo: samplePhoto(2, 2), Count: 1, ChunkSize: 64, Total: 64, Data: bytes.Repeat([]byte{7}, 64)}
	if err := Write(&buf, chunk); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	if _, err := Read(bytes.NewReader(frame[:len(frame)-16])); err == nil {
		t.Fatal("truncated frame decoded silently")
	}
	// And one whose total-length field lies (checksum recomputed so the
	// chunk decoder must catch it).
	body := frame[5 : len(frame)-4]
	lied := append([]byte(nil), body...)
	// The total field sits before the CRC and the 64 data bytes.
	binary.LittleEndian.PutUint64(lied[len(lied)-64-4-8:], 1000)
	if _, err := Read(bytes.NewReader(reframe(MsgChunk, lied))); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

func TestWriteRejectsHugeFrame(t *testing.T) {
	big := Chunk{Photo: samplePhoto(1, 0), Data: make([]byte, MaxFrame)}
	if err := Write(io.Discard, big); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
}

func TestMsgTypeString(t *testing.T) {
	names := map[MsgType]string{
		MsgHello: "Hello", MsgMetadata: "Metadata", MsgPhotoRequest: "PhotoRequest",
		MsgType(4): "MsgType(4)", MsgAck: "Ack", MsgBye: "Bye", MsgType(77): "MsgType(77)",
	}
	for tpe, want := range names {
		if got := tpe.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", tpe, got, want)
		}
	}
}

func TestArrivedNeedsWholeFrame(t *testing.T) {
	var stream bytes.Buffer
	if err := Write(&stream, Ack{IDs: []model.PhotoID{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	frame := stream.Bytes()
	for cut := 0; cut <= len(frame); cut++ {
		r := bufio.NewReader(bytes.NewReader(frame[:cut]))
		if cut > 0 {
			if _, err := r.Peek(cut); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := Arrived(r), cut == len(frame); got != want {
			t.Fatalf("%d of %d bytes buffered: Arrived = %v, want %v", cut, len(frame), got, want)
		}
	}
}

// TestReadIntoMessagesOwnTheirBytes pins what lets a receiver reuse one
// frame buffer: no decoded message aliases its frame. Every message type
// is read through one reused buffer that is scribbled over after each
// read, and each must still equal a fresh decode of its frame.
func TestReadIntoMessagesOwnTheirBytes(t *testing.T) {
	msgs := []Message{
		Hello{Node: 7, Lambda: 0.5, ChunkSize: MinChunkSize, Window: 8, Flags: FlagResume},
		HelloAck{Hello: Hello{Node: 2, ChunkSize: MinChunkSize, Window: 4}},
		MetaSummary{Entries: []metadata.Stamp{{Node: 3, Timestamp: 1}}, Delivered: []model.PhotoID{5, 9}},
		Metadata{Entries: []metadata.Entry{{Node: 4, Lambda: 0.1, P: 0.2, Timestamp: 3,
			Photos: model.PhotoList{samplePhoto(4, 1), samplePhoto(4, 2)}}}},
		PhotoRequest{IDs: []model.PhotoID{11, 12}},
		ResumeOffer{Entries: []ResumeEntry{{ID: 11, ChunkSize: 4, Count: 3, Total: 11, PayloadCRC: 7, Bitmap: []byte{0b101}}}},
		Chunk{Photo: samplePhoto(3, 9), Index: 1, Count: 3, ChunkSize: 4, Total: 11, PayloadCRC: 0xCAFE, Data: []byte{4, 5, 6, 7}},
		ChunkAck{ID: 11, Index: 2},
		Ack{IDs: []model.PhotoID{11}},
		Bye{},
	}
	var stream bytes.Buffer
	for _, m := range msgs {
		if err := Write(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	frames := bytes.NewReader(stream.Bytes())
	var buf []byte
	var got []Message
	for range msgs {
		var m Message
		var err error
		if m, buf, err = ReadInto(frames, buf); err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
		for i := range buf[:cap(buf)] {
			buf[:cap(buf)][i] = 0xFF
		}
	}
	fresh := bytes.NewReader(stream.Bytes())
	for i := range msgs {
		want, err := Read(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("%v decoded through a reused buffer changed when the buffer was overwritten:\n got %+v\nwant %+v",
				want.Type(), got[i], want)
		}
	}
}

// TestReadIntoAliasedSharesOnlyChunkData: through ReadIntoAliased a
// chunk's Data is the frame buffer's own bytes, read without a copy, and
// every other message still owns its bytes when the buffer is overwritten.
func TestReadIntoAliasedSharesOnlyChunkData(t *testing.T) {
	chunk := Chunk{Photo: samplePhoto(3, 9), Index: 1, Count: 3, ChunkSize: 4, Total: 11, PayloadCRC: 0xCAFE, Data: []byte{4, 5, 6, 7}}
	msgs := []Message{
		Hello{Node: 7, Lambda: 0.5, ChunkSize: MinChunkSize, Window: 8, Flags: FlagResume},
		ResumeOffer{Entries: []ResumeEntry{{ID: 11, ChunkSize: 4, Count: 3, Total: 11, PayloadCRC: 7, Bitmap: []byte{0b101}}}},
		chunk,
		Ack{IDs: []model.PhotoID{11}},
	}
	var stream bytes.Buffer
	for _, m := range msgs {
		if err := Write(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	frames := bytes.NewReader(stream.Bytes())
	var buf []byte
	for _, want := range msgs {
		m, b, err := ReadIntoAliased(frames, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = b
		if c, ok := m.(Chunk); ok {
			if !reflect.DeepEqual(c, chunk) {
				t.Fatalf("chunk %+v, want %+v", c, chunk)
			}
			if &c.Data[0] != &buf[len(buf)-4-len(c.Data)] {
				t.Fatal("chunk data is a copy, not the frame's bytes")
			}
		}
		for i := range buf[:cap(buf)] {
			buf[:cap(buf)][i] = 0xFF
		}
		if _, ok := m.(Chunk); !ok && !reflect.DeepEqual(m, want) {
			t.Fatalf("%v changed when the buffer was overwritten: %+v", want.Type(), m)
		}
	}
}
