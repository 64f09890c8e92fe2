package core

import (
	"math/rand"
	"slices"
	"testing"

	"photodtn/internal/coverage"
	"photodtn/internal/model"
	"photodtn/internal/sim"
	"photodtn/internal/trace"
)

// referenceCapture is the capture rule OnPhoto implemented before it kept
// ranks: one scan of the store per eviction, evicting as it goes. It
// reports whether it evicted photos and then rejected the incoming one —
// the case OnPhoto now rejects without evicting anything.
func referenceCapture(st *sim.Storage, solo func(model.Photo) coverage.Coverage, p model.Photo) (evictedThenRejected bool) {
	if p.Size > st.Capacity() {
		return false
	}
	evicted := false
	for p.Size > st.Free() {
		bestID, bestCov := p.ID, solo(p)
		for _, q := range st.Photos() {
			c := solo(q)
			if c.Less(bestCov) || (c.Cmp(bestCov) == 0 && q.ID < bestID) {
				bestID, bestCov = q.ID, c
			}
		}
		if bestID == p.ID {
			return evicted
		}
		st.Remove(bestID)
		evicted = true
	}
	_ = st.Add(p)
	return false
}

// plantedCoverage draws a standalone coverage with planted ties: zero
// coverage, a few exactly repeated values that only the ID can order, and
// values on a 5e-10 grid, where Coverage.Cmp's 1e-9 epsilon is not
// transitive and the scan order decides the victim.
func plantedCoverage(rng *rand.Rand) coverage.Coverage {
	switch rng.Intn(4) {
	case 0:
		return coverage.Coverage{}
	case 1:
		return coverage.Coverage{Point: float64(rng.Intn(3)), Aspect: float64(rng.Intn(2))}
	case 2:
		return coverage.Coverage{Point: 1 + float64(rng.Intn(6))*5e-10, Aspect: float64(rng.Intn(6)) * 5e-10}
	default:
		return coverage.Coverage{Point: rng.Float64() * 2, Aspect: rng.Float64()}
	}
}

// TestOnPhotoMatchesReference drives OnPhoto through random capture streams
// at mixed photo sizes, interleaved with the outside mutations that must
// invalidate a node's ranks (a realisation's Retain, a transfer's Add, an
// upload's Remove, a crash's ReplaceAll(nil)), and holds it to
// referenceCapture after every capture. The one permitted difference is
// the rejected capture that the reference evicted for: OnPhoto must leave
// the store unchanged there.
func TestOnPhotoMatchesReference(t *testing.T) {
	sizes := []int64{1 * mb, 2 * mb, 4 * mb, 4 * mb, 8 * mb, 13 * mb}
	var captures, evictions, fixedRejections int
	for seed := int64(1); seed <= 40; seed++ {
		scheme := New(DefaultConfig())
		runScheme(t, sim.Config{Trace: &trace.Trace{Nodes: 1}, Map: poiMap(), StorageBytes: 12 * mb, Seed: 1, Span: 1}, scheme)
		st := scheme.w.Storage(1)
		ref := sim.NewStorage(st.Capacity())
		rng := rand.New(rand.NewSource(seed))
		used := make(map[model.PhotoID]bool)
		newPhoto := func(owner model.NodeID) model.Photo {
			id := model.MakePhotoID(owner, uint32(rng.Intn(1<<16)))
			for used[id] {
				id = model.MakePhotoID(owner, uint32(rng.Intn(1<<16)))
			}
			used[id] = true
			scheme.solo[id] = plantedCoverage(rng)
			return model.Photo{ID: id, Owner: owner, Size: sizes[rng.Intn(len(sizes))]}
		}
		both := func(f func(*sim.Storage)) { f(st); f(ref) }

		for step := 0; step < 400; step++ {
			switch r := rng.Intn(20); {
			case r == 0:
				mask := rng.Uint32()
				both(func(s *sim.Storage) {
					s.Retain(func(p model.Photo) bool { return mask&(1<<(p.ID.Seq()%32)) != 0 })
				})
			case r == 1:
				p := newPhoto(2)
				both(func(s *sim.Storage) { _ = s.Add(p) })
			case r == 2 && st.Len() > 0:
				id := st.Photos()[rng.Intn(st.Len())].ID
				both(func(s *sim.Storage) { s.Remove(id) })
			case r == 3 && rng.Intn(4) == 0:
				both(func(s *sim.Storage) { _ = s.ReplaceAll(nil) })
			default:
				p := newPhoto(1)
				before := st.List()
				refBefore := ref.Clone()
				fixed := referenceCapture(ref, scheme.soloCoverage, p)
				scheme.OnPhoto(1, p)
				captures++
				if fixed {
					fixedRejections++
					if !slices.Equal(st.List().IDs(), before.IDs()) {
						t.Fatalf("seed %d step %d: rejected capture of %v changed the store: %v -> %v",
							seed, step, p.ID, before.IDs(), st.List().IDs())
					}
					ref = refBefore
				} else if len(before) >= st.Len() && st.Has(p.ID) {
					evictions++
				}
			}
			if !slices.Equal(st.Photos().IDs(), ref.Photos().IDs()) || st.Used() != ref.Used() {
				t.Fatalf("seed %d step %d: store %v, reference %v", seed, step, st.Photos().IDs(), ref.Photos().IDs())
			}
		}
	}
	if evictions == 0 || fixedRejections == 0 {
		t.Fatalf("%d captures exercised %d evictions and %d fixed rejections; want both", captures, evictions, fixedRejections)
	}
	t.Logf("%d captures, %d admitted by eviction, %d rejected without evicting", captures, evictions, fixedRejections)
}
