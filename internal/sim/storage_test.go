package sim

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"photodtn/internal/model"
)

func photoN(owner model.NodeID, seq uint32, size int64) model.Photo {
	return model.Photo{
		ID: model.MakePhotoID(owner, seq), Owner: owner,
		Range: 100, FOV: 1, Size: size,
	}
}

func TestStorageAddRemove(t *testing.T) {
	st := NewStorage(10)
	p := photoN(1, 0, 4)
	if err := st.Add(p); err != nil {
		t.Fatal(err)
	}
	if !st.Has(p.ID) || st.Used() != 4 || st.Free() != 6 || st.Len() != 1 {
		t.Fatalf("state after add: used=%d free=%d len=%d", st.Used(), st.Free(), st.Len())
	}
	got, ok := st.Get(p.ID)
	if !ok || got.ID != p.ID {
		t.Fatal("Get failed")
	}
	st.Remove(p.ID)
	if st.Has(p.ID) || st.Used() != 0 {
		t.Fatal("Remove failed")
	}
	st.Remove(p.ID) // no-op
}

func TestStorageNoSpace(t *testing.T) {
	st := NewStorage(10)
	if err := st.Add(photoN(1, 0, 8)); err != nil {
		t.Fatal(err)
	}
	err := st.Add(photoN(1, 1, 4))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if st.Len() != 1 {
		t.Fatal("failed add changed state")
	}
}

func TestStorageDuplicate(t *testing.T) {
	st := NewStorage(100)
	p := photoN(1, 0, 4)
	if err := st.Add(p); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(p); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	if st.Used() != 4 {
		t.Fatal("duplicate add changed used bytes")
	}
}

func TestStorageCopies(t *testing.T) {
	st := NewStorage(100)
	p := photoN(1, 0, 4)
	if st.Copies(p.ID) != 0 {
		t.Fatal("copies of absent photo should be 0")
	}
	st.SetCopies(p.ID, 4) // not stored: ignored
	if st.Copies(p.ID) != 0 {
		t.Fatal("SetCopies on absent photo should be ignored")
	}
	_ = st.Add(p)
	st.SetCopies(p.ID, 4)
	if st.Copies(p.ID) != 4 {
		t.Fatal("SetCopies failed")
	}
	st.Remove(p.ID)
	if st.Copies(p.ID) != 0 {
		t.Fatal("copies not cleared on remove")
	}
}

func TestStorageListFIFO(t *testing.T) {
	st := NewStorage(100)
	for i := uint32(0); i < 5; i++ {
		_ = st.Add(photoN(1, 4-i, 4)) // insert in reverse ID order
	}
	list := st.List()
	if len(list) != 5 {
		t.Fatalf("len = %d", len(list))
	}
	for i := range list {
		if list[i].ID.Seq() != uint32(4-i) {
			t.Fatalf("FIFO order broken: %v", list.IDs())
		}
	}
}

func TestStorageReplaceAll(t *testing.T) {
	st := NewStorage(12)
	_ = st.Add(photoN(1, 0, 4))
	_ = st.Add(photoN(1, 1, 4))
	repl := model.PhotoList{photoN(2, 0, 4), photoN(2, 1, 4), photoN(2, 2, 4)}
	if err := st.ReplaceAll(repl); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 3 || st.Used() != 12 || st.Has(model.MakePhotoID(1, 0)) {
		t.Fatalf("ReplaceAll state wrong: len=%d used=%d", st.Len(), st.Used())
	}
}

func TestStorageReplaceAllTooBig(t *testing.T) {
	st := NewStorage(8)
	_ = st.Add(photoN(1, 0, 4))
	err := st.ReplaceAll(model.PhotoList{photoN(2, 0, 4), photoN(2, 1, 8)})
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
	if !st.Has(model.MakePhotoID(1, 0)) {
		t.Fatal("failed ReplaceAll mutated storage")
	}
}

func TestStorageReplaceAllDedupes(t *testing.T) {
	st := NewStorage(8)
	p := photoN(1, 0, 4)
	if err := st.ReplaceAll(model.PhotoList{p, p, p}); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 || st.Used() != 4 {
		t.Fatalf("dedup failed: len=%d used=%d", st.Len(), st.Used())
	}
}

// Regression: ReplaceAll rebuilt the copies map from scratch, silently
// resetting spray copy counters to zero for every photo the reallocation
// kept. Under a spray-and-wait scheme that made a relay believe it held the
// last copy of a photo it had just split copies for, inflating replication.
func TestStorageReplaceAllPreservesCopies(t *testing.T) {
	st := NewStorage(100)
	a, b, c, d := photoN(1, 0, 4), photoN(1, 1, 4), photoN(1, 2, 4), photoN(2, 0, 4)
	for _, p := range []model.Photo{a, b, c} {
		if err := st.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	st.SetCopies(a.ID, 4)
	st.SetCopies(b.ID, 2)
	st.SetCopies(c.ID, 1)

	// A reallocation keeps b and c, drops a, and brings in d.
	if err := st.ReplaceAll(model.PhotoList{b, c, d}); err != nil {
		t.Fatal(err)
	}
	if got := st.Copies(b.ID); got != 2 {
		t.Fatalf("kept photo b: copies = %d, want 2", got)
	}
	if got := st.Copies(c.ID); got != 1 {
		t.Fatalf("kept photo c: copies = %d, want 1", got)
	}
	if got := st.Copies(d.ID); got != 0 {
		t.Fatalf("new photo d: copies = %d, want 0", got)
	}
	if got := st.Copies(a.ID); got != 0 {
		t.Fatalf("dropped photo a: copies = %d, want 0", got)
	}
}

func TestStorageCloneIndependent(t *testing.T) {
	st := NewStorage(100)
	p := photoN(1, 0, 4)
	if err := st.Add(p); err != nil {
		t.Fatal(err)
	}
	st.SetCopies(p.ID, 3)

	c := st.Clone()
	if !c.Has(p.ID) || c.Used() != st.Used() || c.Copies(p.ID) != 3 {
		t.Fatalf("clone state differs: used=%d copies=%d", c.Used(), c.Copies(p.ID))
	}
	if err := c.Add(photoN(1, 1, 4)); err != nil {
		t.Fatal(err)
	}
	c.SetCopies(p.ID, 1)
	if st.Len() != 1 || st.Copies(p.ID) != 3 {
		t.Fatal("mutating the clone leaked into the original")
	}
}

// TestStorageRetainMatchesRemove: Retain must leave the storage exactly as
// removing every rejected photo one by one does — order, index, bytes in
// use and copy counters alike.
func TestStorageRetainMatchesRemove(t *testing.T) {
	for mask := 0; mask < 1<<6; mask++ {
		got, want := NewStorage(100), NewStorage(100)
		for i := uint32(0); i < 6; i++ {
			p := photoN(1, i, int64(1+i))
			for _, st := range []*Storage{got, want} {
				if err := st.Add(p); err != nil {
					t.Fatal(err)
				}
				st.SetCopies(p.ID, int(i))
			}
		}
		keep := func(p model.Photo) bool { return mask&(1<<(p.ID.Seq()%6)) != 0 }
		for _, p := range want.List() {
			if !keep(p) {
				want.Remove(p.ID)
			}
		}
		got.Retain(keep)
		if got.Used() != want.Used() || got.Len() != want.Len() {
			t.Fatalf("mask %06b: used %d len %d, want used %d len %d", mask, got.Used(), got.Len(), want.Used(), want.Len())
		}
		for i, p := range want.Photos() {
			if got.Photos()[i] != p {
				t.Fatalf("mask %06b: photo %d = %v, want %v", mask, i, got.Photos()[i].ID, p.ID)
			}
			if g, ok := got.Get(p.ID); !ok || g != p || got.Copies(p.ID) != want.Copies(p.ID) {
				t.Fatalf("mask %06b: index or copy counter of %v out of step", mask, p.ID)
			}
		}
		for i := uint32(0); i < 6; i++ {
			id := photoN(1, i, 0).ID
			if got.Has(id) != want.Has(id) || got.Copies(id) != want.Copies(id) {
				t.Fatalf("mask %06b: photo %v held=%v copies=%d, want held=%v copies=%d",
					mask, id, got.Has(id), got.Copies(id), want.Has(id), want.Copies(id))
			}
		}
	}
}

// storageModel is the naive reference for TestStorageMatchesModel: a plain
// slice in FIFO order and a copy-counter map.
type storageModel struct {
	capacity int64
	photos   []model.Photo
	copies   map[model.PhotoID]int
}

func (m *storageModel) used() int64 {
	var n int64
	for _, p := range m.photos {
		n += p.Size
	}
	return n
}

func (m *storageModel) find(id model.PhotoID) int {
	for i, p := range m.photos {
		if p.ID == id {
			return i
		}
	}
	return -1
}

func (m *storageModel) clone() *storageModel {
	c := &storageModel{capacity: m.capacity, photos: append([]model.Photo(nil), m.photos...),
		copies: make(map[model.PhotoID]int)}
	for id, n := range m.copies {
		c.copies[id] = n
	}
	return c
}

// step applies one random operation to both st and m and reports whether
// the model's collection changed.
func (m *storageModel) step(t *testing.T, rng *rand.Rand, st *Storage, universe []model.Photo) (string, bool) {
	t.Helper()
	pick := func() model.Photo { return universe[rng.Intn(len(universe))] }
	switch rng.Intn(5) {
	case 0:
		p := pick()
		err := st.Add(p)
		switch {
		case m.find(p.ID) >= 0:
			if !errors.Is(err, ErrDuplicate) {
				t.Fatalf("Add(%v) of a stored photo: err = %v", p.ID, err)
			}
		case p.Size > m.capacity-m.used():
			if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("Add(%v) past capacity: err = %v", p.ID, err)
			}
		default:
			if err != nil {
				t.Fatalf("Add(%v): %v", p.ID, err)
			}
			m.photos = append(m.photos, p)
			return "Add", true
		}
		return "Add (refused)", false
	case 1:
		id := pick().ID
		if len(m.photos) > 0 && rng.Intn(2) == 0 {
			id = m.photos[rng.Intn(len(m.photos))].ID
		}
		st.Remove(id)
		i := m.find(id)
		if i < 0 {
			return "Remove (absent)", false
		}
		m.photos = append(m.photos[:i], m.photos[i+1:]...)
		delete(m.copies, id)
		return "Remove", true
	case 2:
		mask := rng.Uint32()
		if rng.Intn(4) == 0 {
			mask = ^uint32(0) // keep everything: a no-op
		}
		keep := func(p model.Photo) bool { return mask&(1<<(p.ID.Seq()%32)) != 0 }
		st.Retain(keep)
		var kept []model.Photo
		for _, p := range m.photos {
			if keep(p) {
				kept = append(kept, p)
			} else {
				delete(m.copies, p.ID)
			}
		}
		changed := len(kept) != len(m.photos)
		m.photos = kept
		return "Retain", changed
	case 3:
		var repl model.PhotoList
		for n := rng.Intn(6); n > 0; n-- {
			repl = append(repl, pick())
		}
		if len(repl) > 0 && rng.Intn(3) == 0 {
			repl = append(repl, repl[0]) // a duplicate
		}
		var next []model.Photo
		var total int64
		for _, p := range repl {
			if !slices.ContainsFunc(next, func(q model.Photo) bool { return q.ID == p.ID }) {
				next = append(next, p)
				total += p.Size
			}
		}
		err := st.ReplaceAll(repl)
		if total > m.capacity {
			if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("ReplaceAll past capacity: err = %v", err)
			}
			return "ReplaceAll (refused)", false
		}
		if err != nil {
			t.Fatalf("ReplaceAll: %v", err)
		}
		copies := make(map[model.PhotoID]int)
		for _, p := range next {
			if n, ok := m.copies[p.ID]; ok {
				copies[p.ID] = n
			}
		}
		m.photos, m.copies = next, copies
		return "ReplaceAll", true // a successful ReplaceAll always counts
	default:
		p := pick()
		n := rng.Intn(8)
		st.SetCopies(p.ID, n)
		if m.find(p.ID) >= 0 {
			m.copies[p.ID] = n
		}
		return "SetCopies", false
	}
}

// check compares every observable of st with the model.
func (m *storageModel) check(t *testing.T, where string, st *Storage, universe []model.Photo) {
	t.Helper()
	got := st.Photos()
	if len(got) != len(m.photos) || st.Len() != len(m.photos) {
		t.Fatalf("%s: %d photos, want %d", where, len(got), len(m.photos))
	}
	for i, p := range m.photos {
		if got[i] != p {
			t.Fatalf("%s: photo %d = %v, want %v (order %v)", where, i, got[i].ID, p.ID, got.IDs())
		}
	}
	if list := st.List(); !slices.Equal(list.IDs(), got.IDs()) {
		t.Fatalf("%s: List %v differs from Photos %v", where, list.IDs(), got.IDs())
	}
	if st.Used() != m.used() || st.Free() != m.capacity-m.used() {
		t.Fatalf("%s: used %d free %d, want used %d", where, st.Used(), st.Free(), m.used())
	}
	for _, p := range universe {
		i := m.find(p.ID)
		g, ok := st.Get(p.ID)
		if st.Has(p.ID) != (i >= 0) || ok != (i >= 0) || (ok && g != p) {
			t.Fatalf("%s: photo %v: Has=%v Get=%v, model holds=%v", where, p.ID, st.Has(p.ID), ok, i >= 0)
		}
		if st.Copies(p.ID) != m.copies[p.ID] {
			t.Fatalf("%s: copies of %v = %d, want %d", where, p.ID, st.Copies(p.ID), m.copies[p.ID])
		}
	}
}

// TestStorageMatchesModel runs random operation sequences against the
// naive slice model: after every step the order, lookups, byte accounting
// and copy counters must agree, Gen must change exactly when the collection
// did, and a clone must stay independent of its source in both directions.
func TestStorageMatchesModel(t *testing.T) {
	var universe []model.Photo
	for i := uint32(0); i < 24; i++ {
		universe = append(universe, photoN(model.NodeID(1+i%3), i, int64(1+i%5)))
	}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := NewStorage(16)
		m := &storageModel{capacity: 16, copies: make(map[model.PhotoID]int)}
		var c *Storage // the latest clone and its model
		var cm *storageModel
		for step := 0; step < 300; step++ {
			if rng.Intn(20) == 0 {
				c, cm = st.Clone(), m.clone()
				gen := st.Gen()
				cm.check(t, "fresh clone", c, universe)
				for k := 0; k < 10; k++ {
					cgen := c.Gen()
					op, changed := cm.step(t, rng, c, universe)
					cm.check(t, "clone after "+op, c, universe)
					if moved := c.Gen() != cgen; moved != changed {
						t.Fatalf("seed %d: clone %s changed the collection=%v but moved Gen=%v", seed, op, changed, moved)
					}
				}
				m.check(t, "source after clone mutations", st, universe)
				if st.Gen() != gen {
					t.Fatalf("seed %d: mutating a clone moved the source's generation", seed)
				}
			}
			gen := st.Gen()
			op, changed := m.step(t, rng, st, universe)
			m.check(t, op, st, universe)
			if moved := st.Gen() != gen; moved != changed {
				t.Fatalf("seed %d step %d: %s changed the collection=%v but moved Gen=%v", seed, step, op, changed, moved)
			}
			if c != nil {
				cm.check(t, "clone after source "+op, c, universe)
			}
		}
	}
}
