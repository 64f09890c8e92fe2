package transfer

import (
	"math/rand"
	"reflect"
	"testing"

	"photodtn/internal/wire"
)

// planStream draws a hostile chunk stream over three photos: each photo
// has two geometries (different payloads), and chunks come out of order,
// repeated, or with their bytes flipped so the assembled checksum fails.
func planStream(rng *rand.Rand, n int) []wire.Chunk {
	var variants [3][2][]wire.Chunk
	for p := range variants {
		for g := range variants[p] {
			payload := make([]byte, 20+8*g+p)
			for i := range payload {
				payload[i] = byte(i*31 + p*7 + g)
			}
			variants[p][g] = chunksFor(testPhoto(uint32(p)), payload, 8)
		}
	}
	out := make([]wire.Chunk, 0, n)
	for len(out) < n {
		p := rng.Intn(3)
		g := 0
		if rng.Intn(8) == 0 {
			g = 1
		}
		cs := variants[p][g]
		c := cs[rng.Intn(len(cs))]
		if rng.Intn(10) == 0 {
			c.Data = append([]byte(nil), c.Data...)
			c.Data[0] ^= 0xFF
		}
		out = append(out, c)
	}
	return out
}

// TestPlanMatchesSequentialAdd is the property test behind batched
// journaling: over random streams — repeats, restarts, checksum failures,
// and a cap small enough to evict — a store that plans each batch and then
// adds the planned prefix must flag as fresh exactly the chunks a twin
// store reports fresh when they are added one at a time, and both stores
// must end every batch in the same state.
func TestPlanMatchesSequentialAdd(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capBytes := int64(0)
		if seed%2 == 0 {
			capBytes = 64 // two or three partials
		}
		planned, oneByOne := NewStore(capBytes), NewStore(capBytes)
		stream := planStream(rng, 120)
		var fresh []bool
		for pos := 0; pos < len(stream); {
			batch := stream[pos:min(len(stream), pos+1+rng.Intn(12))]
			fresh = planned.Plan(fresh[:0], batch)
			if len(fresh) == 0 || len(fresh) > len(batch) {
				t.Fatalf("seed %d pos %d: planned %d of %d chunks", seed, pos, len(fresh), len(batch))
			}
			for i, f := range fresh {
				c := batch[i]
				ref, refErr := oneByOne.Add(c)
				got, err := planned.Add(c)
				if ref.Fresh != f {
					t.Fatalf("seed %d chunk %d (%v[%d]): planned fresh=%v, sequential Add fresh=%v",
						seed, pos+i, c.Photo.ID, c.Index, f, ref.Fresh)
				}
				if got.Fresh != ref.Fresh || got.Complete != ref.Complete || (err == nil) != (refErr == nil) {
					t.Fatalf("seed %d chunk %d: add diverged: %+v/%v vs %+v/%v", seed, pos+i, got, err, ref, refErr)
				}
			}
			if a, b := planned.Stats(), oneByOne.Stats(); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d pos %d: stats %+v, sequential %+v", seed, pos, a, b)
			}
			pos += len(fresh)
		}
	}
}

// TestPlanCoversHonestWindow: a window of in-order chunks for new photos
// that fit the cap plans whole, and a resumed photo's already-held chunks
// plan as repeats.
func TestPlanCoversHonestWindow(t *testing.T) {
	s := NewStore(1 << 20)
	a := chunksFor(testPhoto(1), make([]byte, 64), 16)
	b := chunksFor(testPhoto(2), make([]byte, 64), 16)
	if _, err := s.Add(b[1]); err != nil {
		t.Fatal(err)
	}
	window := append(append([]wire.Chunk(nil), a...), b...)
	got := s.Plan(nil, window)
	want := []bool{true, true, true, true, true, false, true, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plan = %v, want %v", got, want)
	}
	if got := s.Plan(nil, nil); len(got) != 0 {
		t.Fatalf("empty plan = %v", got)
	}
}
