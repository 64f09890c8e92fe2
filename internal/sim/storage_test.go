package sim

import (
	"errors"
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
