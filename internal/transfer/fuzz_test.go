package transfer

import (
	"bytes"
	"reflect"
	"testing"

	"photodtn/internal/model"
)

// FuzzReassembly drives the store with an arbitrary op sequence —
// out-of-order, duplicate, corrupt, and geometry-conflicting chunks plus
// drops — and checks every step against a dense-bitmap oracle. The store's
// sparse bitmap, byte accounting, and completion detection must agree with
// the oracle exactly, and any payload it releases must be bit-identical to
// the source.
//
// Input layout: data[0] picks the chunk size (1..16), data[1] the payload
// length (0..63); the rest is an op stream of (op, arg) byte pairs.
func FuzzReassembly(f *testing.F) {
	f.Add([]byte{4, 11, 0, 0, 0, 2, 0, 1})                         // in-order completion
	f.Add([]byte{4, 11, 0, 2, 0, 0, 0, 0, 0, 1})                   // out of order + duplicate
	f.Add([]byte{8, 63, 1, 0, 0, 1, 0, 0, 2, 2, 0, 2, 0, 3})       // corrupt final chunk
	f.Add([]byte{1, 16, 3, 0, 0, 5, 2, 1, 0, 5, 3, 0, 0, 5})       // mismatch restart + drop
	f.Add([]byte{16, 0, 0, 0})                                     // empty payload, single chunk
	f.Add([]byte{5, 32, 0, 6, 0, 5, 0, 4, 0, 3, 0, 2, 0, 1, 0, 0}) // reverse order

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		size := int(data[0]%16) + 1
		payload := make([]byte, int(data[1]%64))
		for i := range payload {
			payload[i] = byte(i)*7 + 3
		}
		photo := model.Photo{ID: model.MakePhotoID(1, 1), Owner: 1, Size: int64(len(payload))}
		chunks := chunksFor(photo, payload, size)
		count := len(chunks)
		// A second geometry for conflict ops: same photo, different bytes.
		altPayload := append([]byte(nil), payload...)
		altPayload = append(altPayload, 0xEE)
		altChunks := chunksFor(photo, altPayload, size)

		s := NewStore(0)
		oracle := make([]bool, count) // dense bitmap
		alt := false                  // oracle tracks which geometry is live
		poison := -1                  // index of a corrupt slice held, -1 = clean

		oracleCount := func() (n int) {
			for _, b := range oracle {
				if b {
					n++
				}
			}
			return
		}
		reset := func() {
			for i := range oracle {
				oracle[i] = false
			}
			poison = -1
		}

		for i := 2; i+1 < len(data); i += 2 {
			op, arg := data[i]%4, int(data[i+1])
			switch op {
			case 0, 1: // add a chunk of the live/true geometry
				c := chunks[arg%count]
				if op == 1 { // corrupt the slice under the true CRC
					c.Data = append([]byte(nil), c.Data...)
					for j := range c.Data {
						c.Data[j] ^= 0xFF
					}
				}
				wasNew := alt || !oracle[c.Index]
				if alt {
					reset()
					alt = false
				}
				res, err := s.Add(c)
				if res.Fresh != wasNew {
					t.Fatalf("op %d: fresh = %v, oracle %v", i, res.Fresh, wasNew)
				}
				if wasNew {
					oracle[c.Index] = true
					if op == 1 && len(c.Data) > 0 {
						poison = int(c.Index)
					}
				}
				complete := oracleCount() == count
				switch {
				case complete && poison >= 0:
					if err == nil {
						t.Fatalf("op %d: corrupt assembly passed verification", i)
					}
					reset() // store dropped the partial
				case complete && wasNew:
					if err != nil || !res.Complete {
						t.Fatalf("op %d: complete = %v, err = %v", i, res.Complete, err)
					}
					if !bytes.Equal(assembled(s, photo.ID), payload) {
						t.Fatalf("op %d: payload mismatch", i)
					}
				case complete: // duplicate after completion
					if err != nil || res.Complete {
						t.Fatalf("op %d: duplicate after completion: complete=%v err=%v", i, res.Complete, err)
					}
				default:
					if err != nil || res.Complete {
						t.Fatalf("op %d: premature complete=%v err=%v", i, res.Complete, err)
					}
				}
			case 2: // add a conflicting-geometry chunk
				c := altChunks[arg%len(altChunks)]
				hadState := oracleCount() > 0 || alt
				res, err := s.Add(c)
				if err != nil {
					// Only possible as a checksum failure on a 1-chunk alt
					// geometry; the store dropped everything.
					reset()
					alt = false
					continue
				}
				if !alt && hadState && !res.Restarted {
					t.Fatalf("op %d: geometry conflict without restart", i)
				}
				if !alt {
					reset()
					alt = true
				}
				if res.Complete {
					if !bytes.Equal(assembled(s, photo.ID), altPayload) {
						t.Fatalf("op %d: alt payload mismatch", i)
					}
					// Leave the complete partial tracked, as the peer does
					// until commit.
				}
			case 3: // drop
				s.Drop(photo.ID, true)
				reset()
				alt = false
			}
			// Invariant: sparse store and dense oracle agree on progress.
			if !alt {
				have, _ := s.Chunks(photo.ID)
				if int(have) != oracleCount() {
					t.Fatalf("op %d: store holds %d chunks, oracle %d", i, have, oracleCount())
				}
			}
		}
	})
}

// FuzzReassemblyHeld round-trips arbitrary partials through Held and Add:
// adding what Held returns to an empty store must rebuild a store that
// holds the same chunks and still assembles the exact payload.
func FuzzReassemblyHeld(f *testing.F) {
	f.Add([]byte{4, 20, 0b10101}, uint32(4))
	f.Add([]byte{1, 0, 0}, uint32(1))
	f.Fuzz(func(t *testing.T, meta []byte, size uint32) {
		if len(meta) < 2 {
			return
		}
		payload := make([]byte, int(meta[0])%64)
		for i := range payload {
			payload[i] = meta[1] + byte(i)
		}
		size = size%16 + 1
		photo := model.Photo{ID: model.MakePhotoID(2, 2), Owner: 2}
		chunks := chunksFor(photo, payload, int(size))
		s := NewStore(0)
		for i, c := range chunks {
			if len(meta) > 2 && meta[2+i%(len(meta)-2)]%2 == 0 {
				continue // leave a hole
			}
			if _, err := s.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		held := s.Held()
		r := NewStore(0)
		for _, c := range held {
			if _, err := r.Add(c); err != nil {
				t.Fatalf("re-add of held chunk %d: %v", c.Index, err)
			}
		}
		if !reflect.DeepEqual(r.Held(), held) {
			t.Fatal("held/add drift")
		}
		for _, c := range chunks {
			if _, err := r.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := r.Assemble(photo.ID); !ok || !bytes.Equal(assembled(r, photo.ID), payload) {
			t.Fatal("restored partial does not assemble the source payload")
		}
	})
}
