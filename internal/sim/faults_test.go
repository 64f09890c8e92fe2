package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"photodtn/internal/faults"
	"photodtn/internal/model"
	"photodtn/internal/trace"
)

// churnTrace is a dense trace: every node meets node 1 repeatedly, and
// node 1 acts as the gateway's feeder.
func churnTrace(nodes int, contactsPerNode int) *trace.Trace {
	tr := &trace.Trace{Nodes: nodes}
	t := 10.0
	for k := 0; k < contactsPerNode; k++ {
		for n := 2; n <= nodes; n++ {
			tr.Contacts = append(tr.Contacts, trace.Contact{
				Start: t, End: t + 30, A: 1, B: model.NodeID(n),
			})
			t += 50
		}
		tr.Contacts = append(tr.Contacts, trace.Contact{Start: t, End: t + 30, A: 1, B: model.CommandCenter})
		t += 50
	}
	return tr
}

func photoWorkload(tr *trace.Trace, perNode int) []PhotoEvent {
	var out []PhotoEvent
	seq := uint32(0)
	for n := 1; n <= tr.Nodes; n++ {
		for k := 0; k < perNode; k++ {
			out = append(out, PhotoEvent{
				Time: float64(k*40 + n), Node: model.NodeID(n),
				Photo: usefulPhoto(model.NodeID(n), seq),
			})
			seq++
		}
	}
	return out
}

// TestFaultsZeroConfigBitIdentical is the no-op guarantee: a nil Faults
// pointer and an all-zero fault config must produce byte-for-byte identical
// results.
func TestFaultsZeroConfigBitIdentical(t *testing.T) {
	tr := churnTrace(5, 4)
	build := func(fc *faults.Config) Config {
		cfg := baseConfig(tr)
		cfg.Photos = photoWorkload(tr, 3)
		cfg.StorageBytes = 1000
		cfg.Bandwidth = 1 // finite budgets exercise the ErrBudget path too
		cfg.SampleInterval = 100
		cfg.Faults = fc
		return cfg
	}
	base, err := Run(build(nil), &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Run(build(&faults.Config{Seed: 12345}), &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, zero) {
		t.Fatalf("zero-rate fault config changed the run:\nbase %+v\nzero %+v", base, zero)
	}
	if base.NodeCrashes != 0 || base.AbortedTransfers != 0 || base.PhotosLostToCrash != 0 {
		t.Fatalf("fault metrics nonzero without faults: %+v", base)
	}
}

// TestFaultsDeterministic: identical configs and seeds give identical
// results, and a different fault seed gives a different realisation.
func TestFaultsDeterministic(t *testing.T) {
	tr := churnTrace(8, 6)
	build := func(faultSeed int64) Config {
		cfg := baseConfig(tr)
		cfg.Photos = photoWorkload(tr, 4)
		cfg.StorageBytes = 1000
		cfg.SampleInterval = 200
		cfg.Faults = &faults.Config{Seed: faultSeed, NodeFailRate: 0.5, FrameLossProb: 0.1}
		return cfg
	}
	a, err := Run(build(1), &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(build(1), &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same fault seed produced different runs")
	}
	c, err := Run(build(99), &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Samples, c.Samples) && a.NodeCrashes == c.NodeCrashes &&
		a.AbortedTransfers == c.AbortedTransfers {
		t.Fatal("different fault seeds produced identical runs")
	}
}

func TestCrashWipesStorageAndRecords(t *testing.T) {
	tr := churnTrace(4, 5)
	cfg := baseConfig(tr)
	cfg.Photos = photoWorkload(tr, 5)
	cfg.StorageBytes = 1000
	cfg.Faults = &faults.Config{Seed: 3, NodeFailRate: 1} // every node crashes, never rejoins
	res, err := Run(cfg, &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeCrashes != 4 {
		t.Fatalf("crashes = %d, want 4", res.NodeCrashes)
	}
	if res.PhotosLostToCrash == 0 {
		t.Fatal("no photos recorded lost despite full churn")
	}
	// A crash-free run must deliver at least as much.
	cfg.Faults = nil
	clean, err := Run(cfg, &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Delivered > clean.Final.Delivered {
		t.Fatalf("faulty run delivered %d > clean %d", res.Final.Delivered, clean.Final.Delivered)
	}
}

func TestDownNodesDropOutOfContactsAndPhotos(t *testing.T) {
	// NodeFailRate 1 with crashes pinned before the trace span's contacts
	// would need schedule control; instead assert the invariant on the
	// event stream: no contact fires while an endpoint is down.
	tr := churnTrace(6, 6)
	cfg := baseConfig(tr)
	cfg.Photos = photoWorkload(tr, 3)
	cfg.Faults = &faults.Config{Seed: 5, NodeFailRate: 0.8, MeanDowntimeSec: 300, MeanUptimeSec: 600}
	span := tr.Duration()
	fm, err := faults.NewModel(*cfg.Faults, tr.Nodes, span, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	events := buildEvents(cfg, span, fm)
	for _, ev := range events {
		switch ev.kind {
		case evContact:
			if fm.Down(ev.a, ev.time) || fm.Down(ev.b, ev.time) {
				t.Fatalf("contact %+v fired while an endpoint was down", ev.contact())
			}
		case evPhoto:
			if fm.Down(ev.a, ev.time) {
				t.Fatalf("photo event fired on down node %v at %v", ev.a, ev.time)
			}
		}
	}
}

// TestSessionAbortConsistency is the §III-D discard-unfinished check: a
// session aborted mid-transfer discards the unfinished photo and leaves
// storage byte-accounting exactly as before the aborted photo.
func TestSessionAbortConsistency(t *testing.T) {
	w := newWorld(testMap(), 2, 1000, rand.New(rand.NewSource(1)))
	// A fault model whose frame-loss probability is 1: the very first
	// transfer aborts the session.
	fm, err := faults.NewModel(faults.Config{Seed: 1, FrameLossProb: 1}, 2, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}

	// First, a fault-free session moves one photo across.
	first := usefulPhoto(1, 0)
	second := usefulPhoto(1, 1)
	if err := w.Storage(1).Add(first); err != nil {
		t.Fatal(err)
	}
	if err := w.Storage(1).Add(second); err != nil {
		t.Fatal(err)
	}
	clean := &Session{w: w, A: 1, B: 2, Time: 10, unlimited: true}
	if err := clean.Transfer(2, first); err != nil {
		t.Fatal(err)
	}

	usedBefore := [3]int64{0, w.Storage(1).Used(), w.Storage(2).Used()}
	lenBefore := [3]int{0, w.Storage(1).Len(), w.Storage(2).Len()}
	bytesBefore, photosBefore := w.transferredBytes, w.transferredPhotos

	// Now arm the faults and try the second photo: the frame is lost.
	w.faults = fm
	s := &Session{w: w, A: 1, B: 2, Time: 20, unlimited: true, key: 7}
	err = s.Transfer(2, second)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if !s.Aborted() || !s.Exhausted() {
		t.Fatal("session not marked aborted/exhausted")
	}

	// The unfinished photo is discarded: receiver does not have it, and
	// every byte-accounting figure is exactly as before the attempt.
	if w.Storage(2).Has(second.ID) {
		t.Fatal("aborted photo landed in the receiver's storage")
	}
	for n := model.NodeID(1); n <= 2; n++ {
		st := w.Storage(n)
		if st.Used() != usedBefore[n] || st.Len() != lenBefore[n] {
			t.Fatalf("node %v accounting changed: used %d→%d, len %d→%d",
				n, usedBefore[n], st.Used(), lenBefore[n], st.Len())
		}
		var sum int64
		for _, p := range st.List() {
			sum += p.Size
		}
		if sum != st.Used() {
			t.Fatalf("node %v: Used()=%d but photos sum to %d", n, st.Used(), sum)
		}
	}
	if w.transferredBytes != bytesBefore || w.transferredPhotos != photosBefore {
		t.Fatal("aborted transfer consumed transfer accounting")
	}
	if w.abortedTransfers != 1 {
		t.Fatalf("abortedTransfers = %d, want 1", w.abortedTransfers)
	}

	// Subsequent transfers on the dead session keep failing, including
	// deliveries to the command center.
	if err := s.Transfer(2, second); !errors.Is(err, ErrAborted) {
		t.Fatalf("second transfer err = %v, want ErrAborted", err)
	}
	if err := s.Transfer(model.CommandCenter, second); !errors.Is(err, ErrAborted) {
		t.Fatalf("CC transfer err = %v, want ErrAborted", err)
	}
	if w.DeliveredCount() != 0 {
		t.Fatal("aborted session delivered a photo")
	}
}

// TestFrameLossDegradesButStaysConsistent runs a full engine pass under
// heavy frame loss and asserts the storage invariants hold everywhere.
func TestFrameLossDegradesButStaysConsistent(t *testing.T) {
	tr := churnTrace(6, 8)
	cfg := baseConfig(tr)
	cfg.Photos = photoWorkload(tr, 5)
	cfg.StorageBytes = 1000
	cfg.Faults = &faults.Config{Seed: 11, FrameLossProb: 0.4}
	res, err := Run(cfg, &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AbortedTransfers == 0 {
		t.Fatal("no aborts under 40% frame loss")
	}
	cfg.Faults = nil
	clean, err := Run(cfg, &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Delivered > clean.Final.Delivered {
		t.Fatalf("lossy run delivered %d > clean %d", res.Final.Delivered, clean.Final.Delivered)
	}
	if res.Final.Delivered == 0 {
		t.Fatal("40% frame loss wiped out delivery entirely — not graceful")
	}
}

func TestRecoveryMetric(t *testing.T) {
	// One node, one crash between two gateway deliveries: the recovery
	// time is the gap from the crash to the second delivery.
	tr := &trace.Trace{Nodes: 2, Contacts: []trace.Contact{
		{Start: 10, End: 20, A: 1, B: model.CommandCenter},
		{Start: 500, End: 510, A: 2, B: model.CommandCenter},
	}}
	cfg := baseConfig(tr)
	cfg.Photos = []PhotoEvent{
		{Time: 1, Node: 1, Photo: usefulPhoto(1, 0)},
		{Time: 2, Node: 2, Photo: usefulPhoto(2, 1)},
	}
	cfg.Faults = &faults.Config{Seed: 1, NodeFailRate: 1}
	res, err := Run(cfg, &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeCrashes != 2 {
		t.Fatalf("crashes = %d", res.NodeCrashes)
	}
	// Whether a recovery resolves depends on crash placement relative to
	// the deliveries; at minimum the metric must be finite and non-negative.
	if res.MeanRecoverySec < 0 {
		t.Fatalf("negative recovery time %v", res.MeanRecoverySec)
	}
}

func TestBadFaultConfigRejected(t *testing.T) {
	tr := churnTrace(2, 1)
	cfg := baseConfig(tr)
	cfg.Faults = &faults.Config{NodeFailRate: 2}
	if _, err := Run(cfg, &relayScheme{}); !errors.Is(err, ErrBadSimConfig) {
		t.Fatalf("err = %v, want ErrBadSimConfig", err)
	}
}
