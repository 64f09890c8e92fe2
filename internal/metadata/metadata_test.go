package metadata

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"photodtn/internal/model"
)

func photoOf(owner model.NodeID, seq uint32) model.Photo {
	return model.Photo{
		ID:    model.MakePhotoID(owner, seq),
		Owner: owner,
		Range: 100, FOV: 1, Size: 4 << 20,
	}
}

func TestEntryStaleProb(t *testing.T) {
	e := Entry{Node: 2, Lambda: 0.01, Timestamp: 100}
	if got := e.StaleProb(100); got != 0 {
		t.Fatalf("staleness at snapshot time = %v", got)
	}
	want := 1 - math.Exp(-0.01*50)
	if got := e.StaleProb(150); math.Abs(got-want) > 1e-12 {
		t.Fatalf("staleness = %v, want %v", got, want)
	}
	// A snapshot stamped in the observer's future (clock skew) is as stale
	// as one stamped equally far in the past — not permanently fresh.
	if got := e.StaleProb(50); math.Abs(got-want) > 1e-12 {
		t.Fatalf("skewed staleness = %v, want %v", got, want)
	}
	// Zero rate: never stale.
	e.Lambda = 0
	if got := e.StaleProb(1e12); got != 0 {
		t.Fatalf("zero-rate staleness = %v", got)
	}
}

func TestStaleProbMonotone(t *testing.T) {
	f := func(lambda, t1, t2 float64) bool {
		lambda = math.Abs(lambda)
		t1, t2 = math.Abs(t1), math.Abs(t2)
		if math.IsNaN(lambda) || math.IsInf(lambda, 0) || math.IsNaN(t1) || math.IsNaN(t2) {
			return true
		}
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		e := Entry{Lambda: lambda}
		p1, p2 := e.StaleProb(t1), e.StaleProb(t2)
		return p1 >= 0 && p2 <= 1 && p1 <= p2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidityHorizon(t *testing.T) {
	// At the horizon, staleness equals the threshold.
	h := ValidityHorizon(0.01, 0.8)
	e := Entry{Lambda: 0.01}
	if got := e.StaleProb(h); math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("staleness at horizon = %v, want 0.8", got)
	}
	if !math.IsInf(ValidityHorizon(0, 0.8), 1) {
		t.Fatal("zero rate should have infinite horizon")
	}
	if !math.IsInf(ValidityHorizon(0.01, 1), 1) {
		t.Fatal("threshold 1 should have infinite horizon")
	}
	if ValidityHorizon(0.01, 0) != 0 {
		t.Fatal("threshold 0 should have zero horizon")
	}
}

func TestCachePutGet(t *testing.T) {
	c := NewCache(1, 0.8)
	e := Entry{Node: 2, Photos: model.PhotoList{photoOf(2, 0)}, Lambda: 0.01, Timestamp: 10}
	c.Put(e)
	got, ok := c.Get(2)
	if !ok || got.Node != 2 || len(got.Photos) != 1 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if _, ok := c.Get(3); ok {
		t.Fatal("unexpected entry for node 3")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCachePutIgnoresSelf(t *testing.T) {
	c := NewCache(1, 0.8)
	c.Put(Entry{Node: 1, Timestamp: 10})
	if c.Len() != 0 {
		t.Fatal("cache stored its own node")
	}
}

func TestCachePutKeepsNewer(t *testing.T) {
	c := NewCache(1, 0.8)
	c.Put(Entry{Node: 2, Timestamp: 10, Photos: model.PhotoList{photoOf(2, 0)}})
	// Older snapshot must not overwrite.
	c.Put(Entry{Node: 2, Timestamp: 5, Photos: model.PhotoList{photoOf(2, 1), photoOf(2, 2)}})
	e, _ := c.Get(2)
	if e.Timestamp != 10 || len(e.Photos) != 1 {
		t.Fatalf("older snapshot overwrote newer: %+v", e)
	}
	// Newer snapshot replaces.
	c.Put(Entry{Node: 2, Timestamp: 20, Photos: nil})
	e, _ = c.Get(2)
	if e.Timestamp != 20 || len(e.Photos) != 0 {
		t.Fatalf("newer snapshot not taken: %+v", e)
	}
}

func TestCachePutClones(t *testing.T) {
	c := NewCache(1, 0.8)
	photos := model.PhotoList{photoOf(2, 0)}
	c.Put(Entry{Node: 2, Timestamp: 10, Photos: photos})
	photos[0].Size = 1
	e, _ := c.Get(2)
	if e.Photos[0].Size == 1 {
		t.Fatal("cache aliases caller's slice")
	}
}

func TestCommandCenterUnion(t *testing.T) {
	c := NewCache(1, 0.8)
	c.Put(Entry{Node: model.CommandCenter, Timestamp: 10, Photos: model.PhotoList{photoOf(2, 0)}})
	c.Put(Entry{Node: model.CommandCenter, Timestamp: 5, Photos: model.PhotoList{photoOf(3, 0), photoOf(2, 0)}})
	e, _ := c.Get(model.CommandCenter)
	if len(e.Photos) != 2 {
		t.Fatalf("CC union size = %d, want 2", len(e.Photos))
	}
	if e.Timestamp != 10 {
		t.Fatalf("CC timestamp = %v, want max", e.Timestamp)
	}
	if del := c.Delivered(); !slices.Equal(del, []model.PhotoID{model.MakePhotoID(2, 0), model.MakePhotoID(3, 0)}) {
		t.Fatalf("Delivered = %v", del)
	}
}

func TestDeliveredEmpty(t *testing.T) {
	c := NewCache(1, 0.8)
	if c.Delivered() != nil {
		t.Fatal("expected nil delivered set")
	}
}

func TestValidity(t *testing.T) {
	c := NewCache(1, 0.8)
	lambda := 0.001
	c.Put(Entry{Node: 2, Lambda: lambda, Timestamp: 0})
	horizon := ValidityHorizon(lambda, 0.8)

	if entries := c.ValidEntries(horizon * 0.9); len(entries) != 1 {
		t.Fatalf("entry should be valid before horizon, got %d", len(entries))
	}
	if entries := c.ValidEntries(horizon * 1.1); len(entries) != 0 {
		t.Fatalf("entry should be stale after horizon, got %d", len(entries))
	}
	// DropInvalid removes it permanently.
	if dropped := c.DropInvalid(horizon * 1.1); dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
	if c.Len() != 0 {
		t.Fatal("entry not removed")
	}
}

func TestCommandCenterAlwaysValid(t *testing.T) {
	c := NewCache(1, 0.8)
	c.Put(Entry{Node: model.CommandCenter, Lambda: 100, Timestamp: 0})
	if entries := c.ValidEntries(1e12); len(entries) != 1 {
		t.Fatal("CC entry must never go stale")
	}
	if dropped := c.DropInvalid(1e12); dropped != 0 {
		t.Fatal("CC entry must not be dropped")
	}
}

func TestValidEntriesSorted(t *testing.T) {
	c := NewCache(1, 0.8)
	for _, n := range []model.NodeID{5, 3, 9, 2} {
		c.Put(Entry{Node: n, Timestamp: 0})
	}
	entries := c.ValidEntries(10)
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Node >= entries[i].Node {
			t.Fatalf("entries not sorted: %v", entries)
		}
	}
}

func TestMergeFrom(t *testing.T) {
	a := NewCache(1, 0.8)
	b := NewCache(2, 0.8)
	b.Put(Entry{Node: 3, Timestamp: 10, Photos: model.PhotoList{photoOf(3, 0)}})
	b.Put(Entry{Node: 1, Timestamp: 10}) // a's own node: must be skipped
	b.Put(Entry{Node: model.CommandCenter, Timestamp: 4, Photos: model.PhotoList{photoOf(9, 0)}})
	a.Put(Entry{Node: model.CommandCenter, Timestamp: 8, Photos: model.PhotoList{photoOf(8, 0)}})

	a.MergeFrom(b)
	if _, ok := a.Get(3); !ok {
		t.Fatal("third-party entry not gossiped")
	}
	if _, ok := a.Get(1); ok {
		t.Fatal("cache stored its own node via merge")
	}
	if del := a.Delivered(); !slices.Equal(del, []model.PhotoID{model.MakePhotoID(8, 0), model.MakePhotoID(9, 0)}) {
		t.Fatalf("CC ACKs not unioned: %v", del)
	}
	a.MergeFrom(nil) // must not panic
}

func TestCacheRemove(t *testing.T) {
	c := NewCache(1, 0.8)
	c.Put(Entry{Node: 2, Timestamp: 0})
	c.Remove(2)
	if c.Len() != 0 {
		t.Fatal("Remove failed")
	}
}

func TestNewCacheDefaults(t *testing.T) {
	c := NewCache(4, 0)
	if c.Pthld() != DefaultPthld {
		t.Fatalf("Pthld = %v", c.Pthld())
	}
	if c.Owner() != 4 {
		t.Fatalf("Owner = %v", c.Owner())
	}
}

func TestRateEstimator(t *testing.T) {
	r := NewRateEstimator()
	if r.Rate(100) != 0 {
		t.Fatal("empty estimator should report 0")
	}
	r.Observe(2, 0)
	if r.Rate(100) != 0 {
		t.Fatal("single observation should report 0 (unknown)")
	}
	r.Observe(3, 50)
	r.Observe(2, 100)
	if got := r.Rate(100); math.Abs(got-3.0/100) > 1e-12 {
		t.Fatalf("Rate = %v, want 0.03", got)
	}
	if got := r.PeerRate(2, 100); math.Abs(got-2.0/100) > 1e-12 {
		t.Fatalf("PeerRate = %v, want 0.02", got)
	}
	if r.Contacts() != 3 {
		t.Fatalf("Contacts = %d", r.Contacts())
	}
	// Aggregate equals sum of peer rates.
	sum := r.PeerRate(2, 100) + r.PeerRate(3, 100)
	if math.Abs(sum-r.Rate(100)) > 1e-12 {
		t.Fatalf("Σλ_ab = %v != λ_a = %v", sum, r.Rate(100))
	}
}

func TestRateEstimatorZeroElapsed(t *testing.T) {
	r := NewRateEstimator()
	r.Observe(2, 10)
	r.Observe(3, 10)
	if r.Rate(10) != 0 || r.PeerRate(2, 10) != 0 {
		t.Fatal("zero elapsed time should report 0")
	}
	if r.PeerRate(2, 5) != 0 {
		t.Fatal("time before start should report 0")
	}
}

// TestSkewedClockEntryExpires is the regression for the clock-skew bug: a
// cache entry whose snapshot timestamp lies in the local future (reachable
// under the fault model's per-node clock skew) must still expire once the
// skew exceeds the validity horizon — the old code treated negative elapsed
// time as "fresh forever".
func TestSkewedClockEntryExpires(t *testing.T) {
	c := NewCache(1, 0.8)
	horizon := ValidityHorizon(0.01, 0.8)
	future := Entry{
		Node: 2, Photos: model.PhotoList{photoOf(2, 0)},
		Lambda: 0.01, Timestamp: 1000 + 2*horizon, // stamped well ahead of now
	}
	c.Put(future)
	if c.IsValid(future, 1000) {
		t.Fatal("entry skewed past the validity horizon must be stale")
	}
	if dropped := c.DropInvalid(1000); dropped != 1 {
		t.Fatalf("DropInvalid dropped %d, want 1", dropped)
	}
	// A mild skew inside the horizon stays valid, mirroring the past case.
	mild := Entry{Node: 3, Lambda: 0.01, Timestamp: 1000 + horizon/2}
	c.Put(mild)
	if !c.IsValid(mild, 1000) {
		t.Fatal("entry skewed within the horizon must stay valid")
	}
}
