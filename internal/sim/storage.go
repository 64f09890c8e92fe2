// Package sim provides the discrete-event DTN simulator the evaluation
// (§V) runs on: node storages with byte capacities, contact sessions with
// bandwidth budgets, a pluggable routing/selection Scheme interface, and an
// engine that replays a contact trace against a photo-generation workload
// while sampling the command center's coverage over time.
package sim

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"photodtn/internal/model"
)

// Storage errors.
var (
	// ErrNoSpace is returned when a photo does not fit in the remaining
	// capacity.
	ErrNoSpace = errors.New("sim: storage full")
	// ErrDuplicate is returned when the photo is already stored.
	ErrDuplicate = errors.New("sim: photo already stored")
)

// Storage is a node's photo store with a byte capacity. It also tracks a
// per-photo copy counter for spray-based schemes (unused counters stay 0).
// Storage is not safe for concurrent use.
//
// The collection is kept as an insertion-ordered slice, because schemes
// walk it at every contact and iteration must not pay a sort or a map
// walk. Each photo also gets an insertion serial: serial runs parallel to
// list and increases along it, and index maps a photo to its serial, so a
// lookup is a binary search and a removal re-indexes nothing. Gen counts
// mutations of the collection, so a scheme can keep its own view aligned
// with Photos and tell when it went stale.
type Storage struct {
	capacity int64
	used     int64
	list     model.PhotoList // stored photos in insertion (FIFO) order
	serial   []uint64        // serial[i] is list[i]'s insertion serial
	index    map[model.PhotoID]uint64
	copies   map[model.PhotoID]int
	next     uint64 // serial of the next stored photo
	gen      uint64
}

// NewStorage returns an empty storage with the given byte capacity.
func NewStorage(capacity int64) *Storage {
	return &Storage{
		capacity: capacity,
		index:    make(map[model.PhotoID]uint64),
		copies:   make(map[model.PhotoID]int),
	}
}

// Capacity returns the byte capacity.
func (s *Storage) Capacity() int64 { return s.capacity }

// Used returns the bytes in use.
func (s *Storage) Used() int64 { return s.used }

// Free returns the remaining bytes.
func (s *Storage) Free() int64 { return s.capacity - s.used }

// Len returns the number of stored photos.
func (s *Storage) Len() int { return len(s.list) }

// Gen returns the storage's generation. It changes whenever the collection
// does (an Add, the Remove of a stored photo, a Retain that drops a photo,
// a successful ReplaceAll) and on nothing else, so a view built from Photos
// is current exactly while Gen still returns the value it was built at.
// Generations compare only within one storage.
func (s *Storage) Gen() uint64 { return s.gen }

// pos returns the position of a stored photo in list.
func (s *Storage) pos(id model.PhotoID) (int, bool) {
	sn, ok := s.index[id]
	if !ok {
		return 0, false
	}
	i, _ := slices.BinarySearch(s.serial, sn)
	return i, true
}

// push appends a photo the storage does not hold, ignoring capacity.
func (s *Storage) push(p model.Photo) {
	s.index[p.ID] = s.next
	s.list = append(s.list, p)
	s.serial = append(s.serial, s.next)
	s.next++
	s.used += p.Size
}

// Has reports whether the photo is stored.
func (s *Storage) Has(id model.PhotoID) bool {
	_, ok := s.index[id]
	return ok
}

// Get returns a stored photo.
func (s *Storage) Get(id model.PhotoID) (model.Photo, bool) {
	i, ok := s.pos(id)
	if !ok {
		return model.Photo{}, false
	}
	return s.list[i], true
}

// Add stores a photo. It fails with ErrNoSpace if the photo does not fit
// and ErrDuplicate if it is already present.
func (s *Storage) Add(p model.Photo) error {
	if s.Has(p.ID) {
		return fmt.Errorf("%w: %v", ErrDuplicate, p.ID)
	}
	if p.Size > s.Free() {
		return fmt.Errorf("%w: need %d bytes, have %d", ErrNoSpace, p.Size, s.Free())
	}
	s.push(p)
	s.gen++
	return nil
}

// Remove drops a photo (and its copy counter); it is a no-op for absent
// photos. FIFO order of the remaining photos is preserved.
func (s *Storage) Remove(id model.PhotoID) {
	i, ok := s.pos(id)
	if !ok {
		return
	}
	s.used -= s.list[i].Size
	s.list = slices.Delete(s.list, i, i+1)
	s.serial = slices.Delete(s.serial, i, i+1)
	delete(s.index, id)
	delete(s.copies, id)
	s.gen++
}

// Retain keeps the photos for which keep returns true and removes the rest
// (with their copy counters) in one pass, preserving FIFO order. keep must
// not touch the storage.
func (s *Storage) Retain(keep func(model.Photo) bool) {
	n := 0
	for i, p := range s.list {
		if !keep(p) {
			s.used -= p.Size
			delete(s.index, p.ID)
			delete(s.copies, p.ID)
			continue
		}
		s.list[n] = p
		s.serial[n] = s.serial[i]
		n++
	}
	if n == len(s.list) {
		return
	}
	s.list = s.list[:n]
	s.serial = s.serial[:n]
	s.gen++
}

// Copies returns the spray copy counter of a photo (0 if untracked).
func (s *Storage) Copies(id model.PhotoID) int { return s.copies[id] }

// SetCopies sets the spray copy counter of a stored photo.
func (s *Storage) SetCopies(id model.PhotoID, n int) {
	if s.Has(id) {
		s.copies[id] = n
	}
}

// List returns a copy of the stored photos ordered by insertion (FIFO
// order). The copy is safe to hold while mutating the storage.
func (s *Storage) List() model.PhotoList {
	out := make(model.PhotoList, len(s.list))
	copy(out, s.list)
	return out
}

// Photos returns the stored photos in insertion (FIFO) order without
// copying. The slice is read-only and is invalidated by any mutation of the
// storage — use List when removing or adding while iterating.
func (s *Storage) Photos() model.PhotoList { return s.list }

// ReplaceAll atomically replaces the whole collection (the reallocation
// semantics of §III-D). It fails with ErrNoSpace if the new collection does
// not fit; the storage is unchanged on error. Spray copy counters are
// preserved for photos retained across the replacement — a reallocation
// must not reset a copy budget ModifiedSpray is still spending — and
// dropped for everything else.
func (s *Storage) ReplaceAll(photos model.PhotoList) error {
	var total int64
	seen := make(map[model.PhotoID]bool, len(photos))
	for _, p := range photos {
		if seen[p.ID] {
			continue
		}
		seen[p.ID] = true
		total += p.Size
	}
	if total > s.capacity {
		return fmt.Errorf("%w: collection needs %d bytes, capacity %d", ErrNoSpace, total, s.capacity)
	}
	kept := s.copies
	s.list = s.list[:0]
	s.serial = s.serial[:0]
	s.index = make(map[model.PhotoID]uint64, len(photos))
	s.copies = make(map[model.PhotoID]int)
	s.used = 0
	for _, p := range photos {
		if s.Has(p.ID) {
			continue
		}
		s.push(p)
		if n, ok := kept[p.ID]; ok {
			s.copies[p.ID] = n
		}
	}
	s.gen++
	return nil
}

// Clone returns a deep copy of the storage: same capacity, photos, order,
// and copy counters, sharing no mutable state with the original. Contact
// sessions plan against a clone and commit the result back (internal/peer).
func (s *Storage) Clone() *Storage {
	return &Storage{
		capacity: s.capacity,
		used:     s.used,
		list:     slices.Clone(s.list),
		serial:   slices.Clone(s.serial),
		index:    maps.Clone(s.index),
		copies:   maps.Clone(s.copies),
		next:     s.next,
		gen:      s.gen,
	}
}
