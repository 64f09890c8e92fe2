package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"photodtn/internal/metadata"
	"photodtn/internal/model"
)

// FuzzRead hammers the frame decoder with arbitrary bytes: it must never
// panic and never allocate absurdly, only return messages or errors.
func FuzzRead(f *testing.F) {
	// Seed with every valid message type.
	seed := []Message{
		Hello{Node: 1, Lambda: 0.1, DeliveryProb: 0.5, Time: 10, Nonce: 7, Capacity: 1 << 20},
		Metadata{Entries: []metadata.Entry{{Node: 2, Photos: model.PhotoList{samplePhoto(2, 0)}}}},
		PhotoRequest{IDs: []model.PhotoID{1, 2, 3}},
		Chunk{Photo: samplePhoto(1, 1), Count: 1, ChunkSize: 4, Total: 2, Data: []byte{9, 9}},
		Ack{IDs: []model.PhotoID{4}},
		Bye{},
		Hello{Node: 3, Nonce: 8, ChunkSize: 64 << 10, Window: 8, Flags: FlagResume},
		HelloAck{Hello: Hello{Node: 4, ChunkSize: 32 << 10, Window: 2}},
		Chunk{Photo: samplePhoto(5, 0), Index: 1, Count: 3, ChunkSize: 4, Total: 11, PayloadCRC: 3, Data: []byte{1, 2, 3, 4}},
		ChunkAck{ID: model.MakePhotoID(5, 0), Index: 1},
		ResumeOffer{Entries: []ResumeEntry{{ID: 9, ChunkSize: 4, Count: 3, Total: 11, Bitmap: []byte{0b101}}}},
		MetaSummary{Entries: []metadata.Stamp{{Node: 1, Timestamp: 5}, {Node: 4, Timestamp: 2}}},
		MetaSummary{
			Entries:   []metadata.Stamp{{Node: 2, Timestamp: 1}},
			Delivered: []model.PhotoID{model.MakePhotoID(2, 0), model.MakePhotoID(2, 1), model.MakePhotoID(5, 3)},
		},
	}
	for _, msg := range seed {
		var buf bytes.Buffer
		if err := Write(&buf, msg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1})
	f.Add([]byte{})
	// Corruption cases: bad checksum, flipped body byte, truncated payload,
	// oversized declared length.
	{
		var buf bytes.Buffer
		if err := Write(&buf, Hello{Node: 9, Nonce: 1}); err != nil {
			f.Fatal(err)
		}
		badCRC := append([]byte(nil), buf.Bytes()...)
		badCRC[len(badCRC)-1] ^= 0xFF // flipped checksum trailer
		f.Add(badCRC)
		flipped := append([]byte(nil), buf.Bytes()...)
		flipped[7] ^= 0x10 // flipped body byte under a stale checksum
		f.Add(flipped)
	}
	{
		var buf bytes.Buffer
		chunk := Chunk{Photo: samplePhoto(3, 3), Count: 1, ChunkSize: 32, Total: 32, Data: bytes.Repeat([]byte{5}, 32)}
		if err := Write(&buf, chunk); err != nil {
			f.Fatal(err)
		}
		whole := buf.Bytes()
		f.Add(append([]byte(nil), whole[:len(whole)-12]...)) // truncated payload + trailer
	}
	{
		var hdr [5]byte
		binary.LittleEndian.PutUint32(hdr[:4], uint32(MaxFrame+1)) // oversized declared length
		hdr[4] = byte(MsgMetadata)
		f.Add(hdr[:])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i < 8; i++ { // bounded stream decode
			msg, err := Read(r)
			if err != nil {
				return
			}
			// Any decoded message must re-encode without error.
			if err := Write(bytes.NewBuffer(nil), msg); err != nil {
				t.Fatalf("re-encode of fuzz-decoded %v failed: %v", msg.Type(), err)
			}
		}
	})
}

// FuzzDecodeMessage fuzzes the frame-free body decoder directly — the path
// the journal's replay shares with Read. No (type, body) pair may panic,
// and any body that decodes must survive a frame round-trip unchanged.
func FuzzDecodeMessage(f *testing.F) {
	// Seed with the body of every valid message type (frames minus the
	// 5-byte header and 4-byte checksum trailer).
	seed := []Message{
		Hello{Node: 1, Lambda: 0.1, DeliveryProb: 0.5, Time: 10, Nonce: 7, Capacity: 1 << 20},
		Metadata{Entries: []metadata.Entry{{Node: 2, Lambda: 0.5, P: 0.25, Timestamp: 3, Photos: model.PhotoList{samplePhoto(2, 0)}}}},
		Metadata{},
		PhotoRequest{IDs: []model.PhotoID{1, 2, 3}},
		Chunk{Photo: samplePhoto(1, 1), Count: 1, ChunkSize: 4, Total: 2, Data: []byte{9, 9}},
		Ack{IDs: []model.PhotoID{4}},
		Bye{},
		Hello{Node: 3, Nonce: 8, ChunkSize: 64 << 10, Window: 8, Flags: FlagResume},
		HelloAck{Hello: Hello{Node: 4, ChunkSize: 32 << 10, Window: 2}},
		Chunk{Photo: samplePhoto(5, 0), Index: 2, Count: 3, ChunkSize: 4, Total: 11, PayloadCRC: 3, Data: []byte{1, 2, 3}},
		ChunkAck{ID: model.MakePhotoID(5, 0), Index: 1},
		ResumeOffer{Entries: []ResumeEntry{{ID: 9, ChunkSize: 4, Count: 3, Total: 11, Bitmap: []byte{0b101}}}},
		MetaSummary{Entries: []metadata.Stamp{{Node: 2, Timestamp: 3}, {Node: 2, Timestamp: 1}, {Node: 7, Timestamp: -1}}},
		MetaSummary{},
		MetaSummary{Delivered: []model.PhotoID{1, 2, model.MakePhotoID(7, 0)}},
	}
	for _, msg := range seed {
		var buf bytes.Buffer
		if err := Write(&buf, msg); err != nil {
			f.Fatal(err)
		}
		frame := buf.Bytes()
		f.Add(byte(msg.Type()), append([]byte(nil), frame[5:len(frame)-4]...))
	}
	// Hostile shapes: unknown type, truncated counts, absurd lengths.
	f.Add(byte(0), []byte{})
	f.Add(byte(9), []byte{1, 2, 3})
	f.Add(byte(MsgMetadata), []byte{0xFF, 0xFF, 0xFF, 0xFF})             // huge entry count
	f.Add(byte(MsgPhotoRequest), []byte{0xFF, 0xFF, 0xFF, 0x7F})         // huge ID count
	f.Add(byte(4), bytes.Repeat([]byte{0xFF}, 16))                       // reserved tag 4
	f.Add(byte(MsgBye), []byte{1})                                       // bye with body
	f.Add(byte(MsgHello), bytes.Repeat([]byte{0x41}, 35))                // one byte short
	f.Add(byte(MsgMetadata), []byte{1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}) // truncated entry
	// Hostile length claims: counts and geometry chosen to bait an
	// allocator that trusts the header, with bodies far too short to ever
	// satisfy them.
	f.Add(byte(MsgResumeOffer), []byte{0xFF, 0xFF, 0xFF, 0xFF})                     // huge offer count, empty body
	f.Add(byte(MsgResumeOffer), append([]byte{0x10, 0, 0, 0}, make([]byte, 29)...)) // claims 16, holds 1
	f.Add(byte(MsgAck), []byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3})                    // huge ack count, 3 bytes
	f.Add(byte(MsgChunk), func() []byte {                                           // absurd Total/Count geometry
		b := samplePhoto(7, 0).AppendBinary(nil)
		b = appendU32(b, 0)          // index
		b = appendU32(b, 0xFFFFFFFF) // count far past MaxChunks
		b = appendU32(b, 1)          // chunk size
		b = appendU64(b, 1<<62)      // total
		return appendU32(b, 0)       // crc
	}())
	f.Add(byte(MsgMetaSummary), []byte{0xFF, 0xFF, 0xFF, 0xFF})                                     // huge summary count
	f.Add(byte(MsgMetaSummary), []byte{2, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0}) // unsorted, truncated
	f.Add(byte(MsgMetadata), func() []byte {                                                        // entry whose photo list claims 2^31 photos
		b := appendU32(nil, 1)
		b = appendU32(b, 5)
		b = appendF64(b, 0.1)
		b = appendF64(b, 0.2)
		b = appendF64(b, 3)
		return appendU32(b, 0x80000000)
	}())

	f.Fuzz(func(t *testing.T, typ byte, body []byte) {
		msg, err := DecodeBody(MsgType(typ), body)
		if err != nil {
			return
		}
		if got := byte(msg.Type()); got != typ {
			t.Fatalf("decoded type %d from input type %d", got, typ)
		}
		// Round-trip: re-encode as a frame, re-read, re-decode to the same
		// body bytes.
		var buf bytes.Buffer
		if err := Write(&buf, msg); err != nil {
			t.Fatalf("re-encode of decoded %v failed: %v", msg.Type(), err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-read of decoded %v failed: %v", msg.Type(), err)
		}
		if again.Type() != msg.Type() {
			t.Fatalf("round-trip changed type %v to %v", msg.Type(), again.Type())
		}
	})
}

// FuzzNegotiate runs the handshake in either role against a remote whose
// hello carries arbitrary transfer fields. The handshake is refused exactly
// when the smaller chunk size is under MinChunkSize, and a refusing
// responder sends nothing. Otherwise the chunk size lies in
// [MinChunkSize, local], the window in [1, local], and resume is on only
// when both sides set it; a responder's ack states what it agreed to.
func FuzzNegotiate(f *testing.F) {
	for _, size := range []uint32{0, 1, MinChunkSize - 1, MinChunkSize, 64 << 10, DefaultChunkSize, 1<<32 - 1} {
		f.Add(uint32(0), uint16(0), true, size, uint16(DefaultWindow), FlagResume, false)
		f.Add(uint32(16<<10), uint16(4), false, size, uint16(0), uint8(0), true)
	}
	f.Add(uint32(1), uint16(1), true, uint32(MinChunkSize), uint16(1<<16-1), uint8(0xFF), false)
	f.Fuzz(func(t *testing.T, localChunk uint32, localWindow uint16, localResume bool,
		remoteChunk uint32, remoteWindow uint16, remoteFlags uint8, initiator bool) {
		local := Params{ChunkSize: localChunk, Window: localWindow, Resume: localResume}
		h := Hello{Node: 0, ChunkSize: remoteChunk, Window: remoteWindow, Flags: remoteFlags}
		neg, written, err := negotiateAgainst(t, local, h, initiator)
		eff := local.withDefaults()
		if refuse := min(eff.ChunkSize, remoteChunk) < MinChunkSize; refuse != (err != nil) {
			t.Fatalf("local %+v, remote %+v: err = %v, want refusal %v", eff, h, err, refuse)
		}
		if err != nil {
			if !errors.Is(err, ErrHandshake) {
				t.Fatalf("refusal %v is not ErrHandshake", err)
			}
			if len(written) != 0 {
				t.Fatalf("refused, yet wrote %d bytes", len(written))
			}
			return
		}
		if neg.ChunkSize < MinChunkSize || neg.ChunkSize > eff.ChunkSize {
			t.Fatalf("chunk size %d outside [%d, %d]", neg.ChunkSize, MinChunkSize, eff.ChunkSize)
		}
		if neg.Window < 1 || neg.Window > eff.Window {
			t.Fatalf("window %d outside [1, %d]", neg.Window, eff.Window)
		}
		if neg.Resume != (localResume && remoteFlags&FlagResume != 0) {
			t.Fatalf("resume %v with local %v, remote flags %#x", neg.Resume, localResume, remoteFlags)
		}
		if initiator {
			return
		}
		msg, rerr := Read(bytes.NewReader(written))
		ack, ok := msg.(HelloAck)
		if rerr != nil || !ok || ack.ChunkSize != neg.ChunkSize || ack.Window != neg.Window ||
			(ack.Flags&FlagResume != 0) != neg.Resume {
			t.Fatalf("responder answered %v, %v for %+v", msg, rerr, neg)
		}
	})
}

// FuzzChunkAlias is a differential over the two chunk decoders: on any
// body, the aliasing decode that ReadIntoAliased uses and DecodeChunk must
// fail alike or return the same header and equal Data. The aliasing
// decode's Data must be the body's own bytes, and DecodeChunk's a copy
// that survives the body being overwritten.
func FuzzChunkAlias(f *testing.F) {
	for _, c := range []Chunk{
		{Photo: samplePhoto(1, 1), Count: 1, ChunkSize: 4, Total: 2, Data: []byte{9, 9}},
		{Photo: samplePhoto(5, 0), Index: 2, Count: 3, ChunkSize: 4, Total: 11, PayloadCRC: 3, Data: []byte{1, 2, 3}},
		{Photo: samplePhoto(5, 1), Index: 0, Count: 3, ChunkSize: 4, Total: 11, PayloadCRC: 3, Data: []byte{1, 2, 3, 4}},
		{Photo: samplePhoto(6, 0), Count: 1, ChunkSize: 4}, // empty payload
	} {
		f.Add(AppendChunk(nil, c))
	}
	f.Add([]byte{})
	f.Add(append(AppendChunk(nil, Chunk{Photo: samplePhoto(2, 2), Count: 1, ChunkSize: 8, Total: 3, Data: []byte{1, 2, 3}}), 0)) // one byte too many

	f.Fuzz(func(t *testing.T, body []byte) {
		copied, errC := DecodeChunk(body)
		aliased, errA := decodeChunk(body, true)
		if (errC == nil) != (errA == nil) || errors.Is(errC, ErrBadMessage) != errors.Is(errA, ErrBadMessage) {
			t.Fatalf("DecodeChunk err %v, aliasing decode err %v", errC, errA)
		}
		if errC != nil {
			if errC.Error() != errA.Error() {
				t.Fatalf("DecodeChunk err %q, aliasing decode err %q", errC, errA)
			}
			return
		}
		if !bytes.Equal(copied.Data, aliased.Data) || (copied.Data == nil) != (aliased.Data == nil) {
			t.Fatalf("data differ: copied %x, aliased %x", copied.Data, aliased.Data)
		}
		// Compared as encodings: a photo field may be NaN.
		hc, ha := copied, aliased
		hc.Data, ha.Data = nil, nil
		if !bytes.Equal(AppendChunk(nil, hc), AppendChunk(nil, ha)) {
			t.Fatalf("headers differ:\ncopied  %+v\naliased %+v", hc, ha)
		}
		if n := len(aliased.Data); n > 0 {
			if &aliased.Data[0] != &body[len(body)-n] || cap(aliased.Data) != n {
				t.Fatal("aliasing decode's data is not the tail of the body")
			}
			want := append([]byte(nil), copied.Data...)
			for i := range body {
				body[i] ^= 0xFF
			}
			if !bytes.Equal(copied.Data, want) {
				t.Fatal("DecodeChunk's data changed when the body was overwritten")
			}
		}
	})
}
