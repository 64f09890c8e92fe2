package transfer

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"photodtn/internal/model"
	"photodtn/internal/wire"
)

// chunksFor splits payload into canonical wire chunks for the photo.
func chunksFor(photo model.Photo, payload []byte, size int) []wire.Chunk {
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
			Total: total, PayloadCRC: crc, Data: append([]byte(nil), payload[lo:hi]...),
		})
	}
	return out
}

// assembled returns a copy of the photo's reassembled bytes, or nil when
// the store holds no complete partial of it.
func assembled(s *Store, id model.PhotoID) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.parts[id]
	if p == nil || p.haveCount != p.count {
		return nil
	}
	return append([]byte(nil), (*p.buf)...)
}

func testPhoto(seq uint32) model.Photo {
	return model.Photo{ID: model.MakePhotoID(7, seq), Owner: 7, Size: 4 << 20}
}

func TestStoreOutOfOrderAssembly(t *testing.T) {
	s := NewStore(0)
	payload := []byte("the quick brown fox jumps over the lazy dog")
	chunks := chunksFor(testPhoto(0), payload, 8)
	order := []int{3, 0, 5, 1, 4, 2}
	if len(order) != len(chunks) {
		t.Fatalf("test geometry drifted: %d chunks", len(chunks))
	}
	for i, idx := range order {
		res, err := s.Add(chunks[idx])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Fresh {
			t.Fatalf("chunk %d not fresh", idx)
		}
		if last := i == len(order)-1; res.Complete != last {
			t.Fatalf("complete = %v at step %d", res.Complete, i)
		}
		if got := assembled(s, testPhoto(0).ID); i == len(order)-1 && !bytes.Equal(got, payload) {
			t.Fatalf("assembled %q", got)
		}
	}
	if st := s.Stats(); st.Completed != 1 || st.Partials != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if res, ok := s.Assemble(testPhoto(0).ID); !ok || res.Photo != testPhoto(0) || !bytes.Equal(assembled(s, testPhoto(0).ID), payload) {
		t.Fatal("assemble of complete partial failed")
	}
	s.Drop(testPhoto(0).ID, false)
	if st := s.Stats(); st.Partials != 0 || st.WastedBytes != 0 || st.FragmentBytes != 0 {
		t.Fatalf("stats after clean drop = %+v", st)
	}
}

func TestStoreDuplicateChunksIdempotent(t *testing.T) {
	s := NewStore(0)
	chunks := chunksFor(testPhoto(1), []byte("abcdefgh"), 4)
	if res, _ := s.Add(chunks[0]); !res.Fresh {
		t.Fatal("first add not fresh")
	}
	if res, _ := s.Add(chunks[0]); res.Fresh {
		t.Fatal("duplicate reported fresh")
	}
	if have, count := s.Chunks(testPhoto(1).ID); have != 1 || count != 2 {
		t.Fatalf("chunks = %d/%d", have, count)
	}
}

func TestStoreChecksumMismatchDropsPartial(t *testing.T) {
	s := NewStore(0)
	payload := []byte("abcdefgh")
	chunks := chunksFor(testPhoto(2), payload, 4)
	chunks[1].Data = []byte("XXXX") // corrupt slice under the true CRC
	if _, err := s.Add(chunks[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(chunks[1]); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	if st := s.Stats(); st.Partials != 0 || st.WastedBytes != 8 {
		t.Fatalf("stats = %+v", st)
	}
	// The next attempt starts clean and succeeds.
	for _, c := range chunksFor(testPhoto(2), payload, 4) {
		if _, err := s.Add(c); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreGeometryMismatchRestarts(t *testing.T) {
	s := NewStore(0)
	old := chunksFor(testPhoto(3), []byte("old payload bytes"), 4)
	if _, err := s.Add(old[0]); err != nil {
		t.Fatal(err)
	}
	fresh := chunksFor(testPhoto(3), []byte("completely different"), 8)
	res, err := s.Add(fresh[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Restarted || !res.Fresh {
		t.Fatalf("res = %+v, want restart", res)
	}
	st := s.Stats()
	if st.Restarts != 1 || st.WastedBytes != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreOfferRoundTrip(t *testing.T) {
	s := NewStore(0)
	payload := []byte("0123456789abcdefghij")
	chunks := chunksFor(testPhoto(4), payload, 4)
	for _, i := range []int{0, 2, 4} {
		if _, err := s.Add(chunks[i]); err != nil {
			t.Fatal(err)
		}
	}
	e, ok := s.Offer(testPhoto(4).ID)
	if !ok {
		t.Fatal("no offer")
	}
	if e.Count != 5 || e.Total != 20 || e.ChunkSize != 4 {
		t.Fatalf("offer = %+v", e)
	}
	missing := MissingChunks(e)
	if len(missing) != 2 || missing[0] != 1 || missing[1] != 3 {
		t.Fatalf("missing = %v", missing)
	}
	// Filling exactly the missing chunks completes the photo.
	for _, i := range missing {
		res, err := s.Add(chunks[i])
		if err != nil {
			t.Fatal(err)
		}
		if i == 3 && !res.Complete {
			t.Fatal("not complete after last missing chunk")
		}
	}
}

func TestStoreHeldRoundTrip(t *testing.T) {
	s := NewStore(0)
	payload := []byte("held/add round trip payload")
	chunks := chunksFor(testPhoto(5), payload, 8)
	other := chunksFor(testPhoto(4), []byte("second"), 4)
	for _, c := range []wire.Chunk{chunks[3], other[1], chunks[0]} {
		if _, err := s.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	held := s.Held()
	if want := []wire.Chunk{other[1], chunks[0], chunks[3]}; !reflect.DeepEqual(held, want) {
		t.Fatalf("held %+v, want photo then index order %+v", held, want)
	}
	// The data is a copy: scribbling on it leaves the store intact.
	held[1].Data[0] ^= 0xFF
	if again := s.Held(); again[1].Data[0] != chunks[0].Data[0] {
		t.Fatal("Held shares chunk data with the store")
	}
	held[1].Data[0] ^= 0xFF

	r := NewStore(0)
	for _, c := range held {
		if _, err := r.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if have, count := r.Chunks(testPhoto(5).ID); have != 2 || count != 4 {
		t.Fatalf("restored chunks = %d/%d", have, count)
	}
	if !reflect.DeepEqual(r.Held(), held) {
		t.Fatal("re-added chunks do not hold what Held returned")
	}
	// Completing the restored partial yields the exact original payload.
	var got []byte
	for _, i := range []int{1, 2} {
		res, err := r.Add(chunks[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Complete {
			got = assembled(r, testPhoto(5).ID)
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("assembled %q", got)
	}
}

func TestStoreEvictionRespectsCap(t *testing.T) {
	s := NewStore(24)
	a := chunksFor(testPhoto(7), []byte("aaaaaaaaaaaaaaaa"), 8) // 16 bytes
	b := chunksFor(testPhoto(8), []byte("bbbbbbbbbbbbbbbb"), 8) // 16 bytes
	if _, err := s.Add(a[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(b[0]); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Partials != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok := s.Offer(testPhoto(7).ID); ok {
		t.Fatal("oldest partial survived the cap")
	}
	if _, ok := s.Offer(testPhoto(8).ID); !ok {
		t.Fatal("newest partial evicted")
	}
}
