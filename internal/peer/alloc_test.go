package peer

import (
	"net"
	"runtime"
	"testing"

	"photodtn/internal/guard"
	"photodtn/internal/model"
	"photodtn/internal/wire"
)

// bytesPerRun reports the bytes f allocates per call, on one P, averaged
// over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSendChunksPoolsPayloads: a warm sendChunks generates its photos'
// payloads into pooled buffers, so streaming a two-photo upload of 4×16 KiB
// chunks to a receiver that acks every chunk allocates less than one
// photo's payload. A payload allocated per photo would cost two.
func TestSendChunksPoolsPayloads(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	gw, ids := ingestGateway(t)
	s := mustBegin(t, gw)
	ca, cb := net.Pipe()
	defer func() { _ = ca.Close(); _ = cb.Close() }()
	s.conn = ca
	s.wp = wire.Params{ChunkSize: ingestShapeChunk, Window: wire.DefaultWindow, Resume: true}
	go func() {
		var buf []byte
		for {
			msg, b, err := wire.ReadIntoAliased(cb, buf)
			if err != nil {
				return
			}
			buf = b
			if c, ok := msg.(wire.Chunk); ok {
				if err := wire.Write(cb, wire.ChunkAck{ID: c.Photo.ID, Index: c.Index}); err != nil {
					return
				}
			}
		}
	}()
	per := bytesPerRun(20, func() {
		if err := s.sendChunks(ids, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("sendChunks of two %d KiB photos: %.0f B", ingestShapePayload>>10, per)
	if per >= ingestShapePayload {
		t.Fatalf("a warm sendChunks of two photos allocates %.0f B, at least one %d-byte payload", per, ingestShapePayload)
	}
}

// TestIngestUploadAllocs: once its pools are warm, a durable, guarded
// command center taking a two-photo upload of 4×16 KiB chunks over
// net.Pipe allocates less than one photo's payload per upload, counting
// both sides of the contact and the gateway's captures. Any one of the
// sender's payloads, the decoded chunks' data or the reassembly buffers,
// allocated per photo, would cost two payloads per upload.
func TestIngestUploadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const pois = 64
	m := poiMapN(pois)
	now := 1000.0
	clock := WithClock(func() float64 { return now })
	transfer := WithTransfer(TransferConfig{ChunkSize: ingestShapeChunk, Resume: true})
	cc, err := Open(t.TempDir(), model.CommandCenter, m, 0, WithSeed(1), clock, transfer, WithGuard(guard.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cc.Close() }()
	gw := New(3, m, 64*mb, WithSeed(2), clock, transfer, WithPayloadBytes(ingestShapePayload))
	seq := uint32(0)
	upload := func() {
		for k := 0; k < 2; k++ {
			// A new PoI, or a new aspect of one, so the photo is uploaded.
			if err := gw.AddPhoto(viewOfPoI(3, seq, int(seq%pois), 90*float64(seq/pois))); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		now += 30 // the guard refills a peer's contact bucket at 1/s
		if errGW, errCC := tryContact(gw, cc); errGW != nil || errCC != nil {
			t.Fatalf("upload: gateway %v, command center %v", errGW, errCC)
		}
		if held := len(gw.Photos()); held != 0 {
			t.Fatalf("the gateway still holds %d photos after its upload", held)
		}
	}
	// The least of three measurements: a collection that empties the pools
	// mid-run costs one refill, while a copy per photo costs every upload.
	per := bytesPerRun(20, upload)
	for i := 0; i < 2; i++ {
		per = min(per, bytesPerRun(20, upload))
	}
	if got := len(cc.Photos()); got != int(seq) {
		t.Fatalf("the command center holds %d photos, want %d", got, seq)
	}
	t.Logf("two-photo upload to a durable, guarded command center: %.0f B", per)
	if per >= ingestShapePayload {
		t.Fatalf("a warm upload allocates %.0f B, at least one %d-byte payload", per, ingestShapePayload)
	}
}
