package peer

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"photodtn/internal/metadata"
	"photodtn/internal/model"
	"photodtn/internal/wire"
)

// payloadForByWord is the keystream payloadFor wrote before it put words
// in place: every word goes through an 8-byte array and is copied over,
// the last one cut short.
func payloadForByWord(id model.PhotoID, n int) []byte {
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

// TestPayloadForMatchesByWord pins the synthetic payload byte for byte:
// every holder of a photo must produce the same bytes, so a transfer can
// resume from another relay, and so the keystream can never change.
func TestPayloadForMatchesByWord(t *testing.T) {
	ids := []model.PhotoID{0, 1, model.MakePhotoID(7, 3), math.MaxUint64}
	for _, id := range ids {
		for _, n := range []int{-1, 0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000, 16 << 10, 64 << 10, 64<<10 + 3} {
			got, want := payloadFor(id, n), payloadForByWord(id, n)
			if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("payloadFor(%v, %d) differs from the word-by-word keystream", id, n)
			}
		}
	}
}

// TestDeliveredHeldMatchesScan: the upload's purge of held photos the
// command center already lists, looked up in the sorted delivered IDs,
// picks exactly the photos a scan of the ledger finds, in store order.
func TestDeliveredHeldMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	matched := 0
	for round := 0; round < 50; round++ {
		p := newTestPeer(t, 1, poiMap(), 1<<40)
		var ledger model.PhotoList
		for range rng.Intn(40) {
			ph := viewFrom(model.NodeID(2+rng.Intn(4)), uint32(rng.Intn(30)), 0)
			if rng.Intn(2) == 0 {
				_ = p.AddPhoto(ph) // a repeat is refused, which is fine
			}
			if rng.Intn(2) == 0 {
				ledger = append(ledger, ph)
			}
		}
		p.cache.Put(metadata.Entry{Node: model.CommandCenter, Photos: ledger, Timestamp: 1})
		s := mustBegin(t, p)
		var want model.PhotoList
		for _, ph := range s.st.store.Photos() {
			if ledger.Contains(ph.ID) {
				want = append(want, ph)
			}
		}
		got := s.deliveredHeld()
		matched += len(want)
		if len(got) != len(want) {
			t.Fatalf("round %d: purged %v, want %v", round, got.IDs(), want.IDs())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: purged %v, want %v", round, got.IDs(), want.IDs())
			}
		}
	}
	if matched == 0 {
		t.Fatal("no round held a delivered photo")
	}
}

// TestReconcileFragsMatchesScan: a commit's settling of the reassembly
// store, which looks delivered photos up in the sorted delivered IDs,
// drops exactly the partials a scan of the ledger would: those of held
// photos, and as waste those of delivered ones.
func TestReconcileFragsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	drops := 0
	for round := 0; round < 30; round++ {
		p := newTestPeer(t, 1, poiMap(), 1<<40)
		photo := func() model.Photo { return viewFrom(model.NodeID(2+rng.Intn(4)), uint32(rng.Intn(60)), 0) }
		var ledger model.PhotoList
		for range rng.Intn(80) {
			ledger = append(ledger, photo())
		}
		p.cache.Put(metadata.Entry{Node: model.CommandCenter, Photos: ledger, Timestamp: 1})
		for range rng.Intn(10) {
			_ = p.AddPhoto(photo()) // a repeat is refused, which is fine
		}
		var keep []model.PhotoID
		wasted := 0
		for range 1 + rng.Intn(20) {
			ph := photo()
			if _, err := p.frags.Add(wire.Chunk{Photo: ph, Count: 2, ChunkSize: 4, Total: 8, Data: make([]byte, 4)}); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range p.frags.IDs() {
			switch {
			case p.store.Has(id):
			case ledger.Contains(id):
				wasted++
			default:
				keep = append(keep, id)
			}
		}
		p.mu.Lock()
		err := p.reconcileFragsLocked()
		p.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		got := p.frags.IDs()
		slices.Sort(got)
		slices.Sort(keep)
		if !slices.Equal(got, keep) {
			t.Fatalf("round %d: partials left %v, want %v", round, got, keep)
		}
		if w := p.TransferStats().WastedBytes; w != int64(wasted)*4 {
			t.Fatalf("round %d: %d bytes wasted, want %d", round, w, wasted*4)
		}
		drops += wasted
	}
	if drops == 0 {
		t.Fatal("no round dropped a delivered photo's partial")
	}
}

// TestBeginSessionBuildsNoLedgerMap: a contact at a command center holding
// 10,000 photos begins with the state clone alone. The set of held photo
// IDs that a reallocation re-plan needs is built by the reallocation, and
// the command center never reallocates.
func TestBeginSessionBuildsNoLedgerMap(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := newTestPeer(t, model.CommandCenter, poiMap(), 0)
	for i := 0; i < 10000; i++ {
		if err := p.AddPhoto(viewFrom(model.NodeID(1+i%20), uint32(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	bytesPerRun := func(f func()) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 20
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	clone := bytesPerRun(func() { p.peerState.clone() })
	begin := bytesPerRun(func() { mustBegin(t, p) })
	t.Logf("state clone %.0f B, beginSession %.0f B", clone, begin)
	if begin > clone+2048 {
		t.Fatalf("beginSession allocates %.0f B at a 10,000-photo command center, %.0f B more than the state clone",
			begin, begin-clone)
	}
}
