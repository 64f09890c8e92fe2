package selection

// Property tests of the kept ledger base: a session that extends the
// command-center coverage it kept from its last phase must plan exactly as a
// fresh session does, and hold the same base, on any sequence of calls —
// not only on the append-only ledgers it is built for.

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"photodtn/internal/coverage"
	"photodtn/internal/geo"
	"photodtn/internal/metadata"
	"photodtn/internal/model"
	"photodtn/internal/obs"
	"photodtn/internal/workload"
)

// ledgerWorld is two PoI maps over one dense region and a photo universe
// most of whose photos cover some PoI of either.
type ledgerWorld struct {
	maps   [2]*coverage.Map
	photos model.PhotoList
}

func newLedgerWorld(tb testing.TB, seed int64) *ledgerWorld {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	wl := workload.Default(20, 3600)
	wl.NumPoIs = 60
	wl.Region = geo.Square(1200)
	wl.PhotosPerHour = 500
	w := &ledgerWorld{}
	for i := range w.maps {
		w.maps[i] = coverage.NewMap(workload.GeneratePoIs(wl, rng), geo.Radians(30))
	}
	for _, e := range workload.GeneratePhotos(wl, rng) {
		w.photos = append(w.photos, e.Photo)
	}
	if len(w.photos) < 200 {
		tb.Fatalf("photo universe too small: %d", len(w.photos))
	}
	return w
}

// sample returns n photos of the universe drawn with replacement.
func (w *ledgerWorld) sample(rng *rand.Rand, n int) model.PhotoList {
	out := make(model.PhotoList, n)
	for i := range out {
		out[i] = w.photos[rng.Intn(len(w.photos))]
	}
	return out
}

// sameBase fails unless two bases are the same coverage state, PoI by PoI.
func sameBase(t *testing.T, step int, got, want *coverage.State) {
	t.Helper()
	if got.Map() != want.Map() || got.Coverage() != want.Coverage() || got.NumCovered() != want.NumCovered() {
		t.Fatalf("step %d: kept base %+v (%d PoIs), fresh %+v (%d PoIs)",
			step, got.Coverage(), got.NumCovered(), want.Coverage(), want.NumCovered())
	}
	for i := range got.Map().NumPoIs() {
		if got.AspectOf(i) != want.AspectOf(i) {
			t.Fatalf("step %d: PoI %d aspect %v kept, %v fresh", step, i, got.AspectOf(i), want.AspectOf(i))
		}
	}
}

// TestKeptLedgerBaseMatchesFresh drives one kept session through generated
// sequences of uploads and reallocations. The command-center ledger mostly
// grows by appends, but also diverges from the recorded prefix in place,
// shrinks, repeats IDs, is emptied, has a photo's footprint invalidated and
// corrected, and is read through another footprint cache or map; the
// session's evaluator is released now and then; the background has sure
// (P = 1) nodes, and a P = 1 first selector sends phase
// 2 to a fresh init. After every call the kept session's plan and base must
// equal a fresh session's, bit for bit.
func TestKeptLedgerBaseMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		w := newLedgerWorld(t, seed)
		rng := rand.New(rand.NewSource(seed))
		caches := []*coverage.FootprintCache{
			coverage.NewFootprintCache(w.maps[0]),
			coverage.NewFootprintCache(w.maps[0]),
			coverage.NewFootprintCache(w.maps[1]),
		}
		fpc := caches[0]
		reg := obs.NewRegistry()
		keptAdds, freshAdds := reg.Counter("kept"), reg.Counter("fresh")
		kept := NewSession()
		var ledger model.PhotoList
		size := w.photos[0].Size
		for step := 0; step < 150; step++ {
			switch r := rng.Intn(24); {
			case r < 14:
				ledger = append(ledger, w.sample(rng, rng.Intn(6))...)
			case r < 16 && len(ledger) > 0:
				// In place: the session must hold its own copy of the IDs.
				ledger[rng.Intn(len(ledger))] = w.sample(rng, 1)[0]
			case r < 17:
				ledger = ledger[:rng.Intn(len(ledger)+1)]
			case r < 18 && len(ledger) > 0:
				ledger = append(ledger, ledger[rng.Intn(len(ledger))])
			case r < 19:
				fpc = caches[rng.Intn(len(caches))]
			case r < 20 && len(ledger) > 0:
				// A corrected photo: same ID, another footprint.
				i := rng.Intn(len(ledger))
				p := ledger[i]
				p.Orientation += 1.5
				fpc.Invalidate(p.ID)
				ledger[i] = p
			case r < 21:
				ledger = nil
			case r < 22:
				// The states go back to the map's pool; the session's next
				// phase must start a new base.
				kept.ev.Release()
			}
			cfg := Config{ExactLimit: 2, Samples: 6, Seed: rng.Int63()}
			keptCfg, freshCfg := cfg, cfg
			keptCfg.Metrics.BaseFootprints = keptAdds
			freshCfg.Metrics.BaseFootprints = freshAdds
			fresh := NewSession()
			if rng.Intn(2) == 0 {
				node := w.sample(rng, 5+rng.Intn(20))
				got := kept.SelectForUpload(fpc, keptCfg, ledger, node)
				want := fresh.SelectForUpload(fpc, freshCfg, ledger, node)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: upload plan %v, fresh %v", seed, step, got.IDs(), want.IDs())
				}
			} else {
				var view []metadata.Entry
				if rng.Intn(6) != 0 {
					view = append(view, metadata.Entry{Node: model.CommandCenter, Photos: ledger})
				}
				probs := []float64{0, 0.3, 0.7, 1}
				for n := rng.Intn(4); n > 0; n-- {
					view = append(view, metadata.Entry{Node: model.NodeID(2 + n), P: probs[rng.Intn(len(probs))],
						Photos: w.sample(rng, rng.Intn(8))})
				}
				alloc := func(id model.NodeID) Alloc {
					return Alloc{Node: id, P: probs[1+rng.Intn(len(probs)-1)],
						Capacity: int64(1+rng.Intn(6)) * size, Photos: w.sample(rng, rng.Intn(12))}
				}
				a, b := alloc(1), alloc(2)
				got := kept.Reallocate(fpc, keptCfg, view, a, b)
				want := fresh.Reallocate(fpc, freshCfg, view, a, b)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: reallocation %+v, fresh %+v", seed, step, got, want)
				}
			}
			sameBase(t, step, kept.ev.ds.Base(), fresh.ev.ds.Base())
		}
		// The sequence must have exercised the kept base, not only rebuilds.
		if k, f := keptAdds.Value(), freshAdds.Value(); k >= f {
			t.Fatalf("seed %d: kept session added %d base footprints, fresh sessions %d", seed, k, f)
		}
	}
}

// TestBaseFootprintsCountLedgerOnce runs an ingest-shaped schedule: one
// gateway uploads over many contacts, and what it uploads joins the ledger
// of the next. On the gateway's kept session selection.base_footprints ends
// at the number of useful photos in the final ledger, where a session per
// upload would count the sum of every contact's ledger.
func TestBaseFootprintsCountLedgerOnce(t *testing.T) {
	w := newLedgerWorld(t, 7)
	rng := rand.New(rand.NewSource(7))
	fpc := coverage.NewFootprintCache(w.maps[0])
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Metrics.BaseFootprints = reg.Counter("selection.base_footprints")
	s := NewSession()
	var ledger model.PhotoList
	sum := 0
	held := map[model.PhotoID]bool{}
	for contact := 0; contact < 30; contact++ {
		var node model.PhotoList
		for _, p := range w.sample(rng, 10) {
			if !held[p.ID] {
				held[p.ID] = true
				node = append(node, p)
			}
		}
		sum += len(fpc.AppendUseful(nil, ledger))
		plan := s.SelectForUpload(fpc, cfg, ledger, node)
		ledger = append(ledger, plan[:min(len(plan), 4)]...) // the contact's budget
	}
	s.SelectForUpload(fpc, cfg, ledger, nil)
	sum += len(fpc.AppendUseful(nil, ledger))
	want := int64(len(fpc.AppendUseful(nil, ledger)))
	if got := cfg.Metrics.BaseFootprints.Value(); got != want {
		t.Fatalf("base footprints = %d, want the final ledger's %d useful photos (a rebuild per upload adds %d)",
			got, want, sum)
	}
	if want == 0 || int64(sum) <= want {
		t.Fatalf("degenerate schedule: ledger %d useful photos, per-upload sum %d", want, sum)
	}
}
