package transfer

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"photodtn/internal/guard"
	"photodtn/internal/model"
	"photodtn/internal/wire"
)

// TestRecycledReassemblyBuffers runs assemblies over recycled buffers that
// come back dirty: chunks of six photos in shuffled order, with
// duplicates, geometry restarts, evictions under a byte cap, admissions,
// and chunks whose bytes are flipped under the true checksum. Every
// completion must assemble the source bytes, and after every step Held
// must return exactly the chunks a model of the store holds.
func TestRecycledReassemblyBuffers(t *testing.T) {
	const photos = 6
	// Two geometries per photo: different lengths, chunk sizes and bytes.
	var source [photos][2][]byte
	var chunks [photos][2][]wire.Chunk
	for k := range source {
		for g := range source[k] {
			payload := make([]byte, 40+17*g+k)
			for i := range payload {
				payload[i] = byte(i*13 + k*7 + g*101)
			}
			source[k][g] = payload
			chunks[k][g] = chunksFor(testPhoto(uint32(k)), payload, 8+8*g)
		}
	}
	type held struct {
		geo      int
		data     map[uint32][]byte
		poisoned bool
	}
	dirty := func(n int) {
		for i := 0; i < n; i++ {
			b := bytes.Repeat([]byte{0xA5}, 16+i*24)
			bufs.Put(&b)
		}
	}

	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(160) // two or three partials fit
		parts := make(map[model.PhotoID]*held)
		completions, failures := 0, 0
		for step := 0; step < 3000; step++ {
			if step%50 == 0 {
				dirty(4)
			}
			// Mostly a sliding window of three photos that fits the cap,
			// sometimes any photo, which evicts.
			k := (step/300 + rng.Intn(3)) % photos
			if rng.Intn(15) == 0 {
				k = rng.Intn(photos)
			}
			id := testPhoto(uint32(k)).ID
			if rng.Intn(20) == 0 {
				s.Drop(id, rng.Intn(2) == 0)
				delete(parts, id)
				continue
			}
			g := 0
			if rng.Intn(30) == 0 {
				g = 1
			}
			cs := chunks[k][g]
			c := cs[rng.Intn(len(cs))]
			corrupt := rng.Intn(60) == 0
			if corrupt {
				c.Data = append([]byte(nil), c.Data...)
				for i := range c.Data {
					c.Data[i] ^= 0xFF
				}
			}
			m := parts[id]
			if m != nil && m.geo != g {
				m = nil // the store restarts the partial
			}
			if m == nil {
				m = &held{geo: g, data: make(map[uint32][]byte)}
				parts[id] = m
			}
			_, dup := m.data[c.Index]
			res, err := s.Add(c)
			if res.Fresh == dup {
				t.Fatalf("seed %d step %d: fresh = %v for a chunk the model holds = %v", seed, step, res.Fresh, dup)
			}
			if !dup {
				m.data[c.Index] = c.Data
				m.poisoned = m.poisoned || corrupt
			}
			full := len(m.data) == len(cs)
			switch {
			case !dup && full && m.poisoned:
				if !errors.Is(err, ErrChecksum) {
					t.Fatalf("seed %d step %d: poisoned assembly returned %v", seed, step, err)
				}
				delete(parts, id)
				failures++
			case !dup && full:
				if err != nil || !res.Complete {
					t.Fatalf("seed %d step %d: complete = %v, err = %v", seed, step, res.Complete, err)
				}
				if got := assembled(s, id); !bytes.Equal(got, source[k][g]) {
					t.Fatalf("seed %d step %d: assembled %x, want %x", seed, step, got, source[k][g])
				}
				completions++
				if rng.Intn(2) == 0 {
					s.Drop(id, false) // admitted
					delete(parts, id)
				}
			case err != nil || res.Complete:
				t.Fatalf("seed %d step %d: complete = %v, err = %v before the last chunk", seed, step, res.Complete, err)
			}
			// Evictions: a partial the store no longer tracks is gone.
			tracked := make(map[model.PhotoID]bool)
			for _, id := range s.IDs() {
				tracked[id] = true
			}
			for id := range parts {
				if !tracked[id] {
					delete(parts, id)
				}
			}
			if len(tracked) != len(parts) {
				t.Fatalf("seed %d step %d: store tracks %d partials, model %d", seed, step, len(tracked), len(parts))
			}
			var want []wire.Chunk
			var bytesHeld int64
			for k := 0; k < photos; k++ {
				m := parts[testPhoto(uint32(k)).ID]
				if m == nil {
					continue
				}
				idx := make([]uint32, 0, len(m.data))
				for i := range m.data {
					idx = append(idx, i)
				}
				sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
				for _, i := range idx {
					c := chunks[k][m.geo][i]
					c.Data = m.data[i]
					want = append(want, c)
					bytesHeld += int64(len(c.Data))
				}
			}
			if got := s.Held(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: Held returned %d chunks, the model holds %d", seed, step, len(got), len(want))
			}
			if st := s.Stats(); st.FragmentBytes != bytesHeld {
				t.Fatalf("seed %d step %d: %d fragment bytes, model %d", seed, step, st.FragmentBytes, bytesHeld)
			}
		}
		if st := s.Stats(); completions == 0 || failures == 0 || st.Evictions == 0 || st.Restarts == 0 {
			t.Fatalf("seed %d: %d completions, %d checksum failures, stats %+v: a case went unexercised",
				seed, completions, failures, st)
		}
		t.Logf("seed %d: %d completions, %d checksum failures, %d restarts, %d evictions",
			seed, completions, failures, s.Stats().Restarts, s.Stats().Evictions)
	}

	// A partial of the largest photo the guard admits is never pooled.
	big := wire.Chunk{Photo: testPhoto(99), Count: guard.MaxPhotoBytes / (1 << 20), ChunkSize: 1 << 20,
		Total: guard.MaxPhotoBytes, Data: make([]byte, 1<<20)}
	s := NewStore(0)
	if _, err := s.Add(big); err != nil {
		t.Fatal(err)
	}
	s.Drop(big.Photo.ID, true)
	var taken []*[]byte
	for i := 0; i < 64; i++ {
		bp := bufs.Get().(*[]byte)
		if cap(*bp) > maxPooledBuf {
			t.Fatalf("the pool kept a %d-byte reassembly buffer", cap(*bp))
		}
		taken = append(taken, bp)
	}
	for _, bp := range taken {
		releaseBuf(bp)
	}
}

// TestRecycledBuffersAcrossStores: stores on several goroutines draw on
// the one buffer pool at once, each assembling and dropping photos of its
// own, and every completion still assembles exactly its source bytes.
func TestRecycledBuffersAcrossStores(t *testing.T) {
	const workers, rounds = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			s := NewStore(0)
			for r := 0; r < rounds; r++ {
				payload := make([]byte, 24+rng.Intn(200))
				rng.Read(payload)
				photo := testPhoto(uint32(w*rounds + r))
				chunks := chunksFor(photo, payload, 16)
				rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
				for i, c := range chunks {
					res, err := s.Add(c)
					if err != nil || res.Complete != (i == len(chunks)-1) {
						t.Errorf("worker %d round %d chunk %d: complete = %v, err = %v", w, r, i, res.Complete, err)
						return
					}
				}
				if got := assembled(s, photo.ID); !bytes.Equal(got, payload) {
					t.Errorf("worker %d round %d: assembled bytes differ from the source", w, r)
					return
				}
				s.Drop(photo.ID, false)
			}
		}(w)
	}
	wg.Wait()
}
