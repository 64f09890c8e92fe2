package peer

import (
	"slices"
	"sync"
	"testing"

	"photodtn/internal/model"
	"photodtn/internal/obs"
	"photodtn/internal/selection"
)

// TestUploadSessionMatchesFresh plans a gateway's uploads against a
// command-center ledger that grows from round to round. In every round two
// uploads plan at once: one on the gateway's own session, which extends the
// coverage it kept from the last round, and one on the pooled fallback, or
// the other way round, whichever takes the session first. A last upload
// finds the session held and must fall back. Every plan must equal a fresh
// session's.
func TestUploadSessionMatchesFresh(t *testing.T) {
	const pois = 12
	m := poiMapN(pois)
	gw := newTestPeer(t, 1, m, 0)
	photo := func(owner model.NodeID, seq uint32) model.Photo {
		return viewOfPoI(owner, seq, int(seq)%pois, float64(seq*37%360))
	}
	fresh := func(ledger, held model.PhotoList) model.PhotoList {
		return selection.NewSession().SelectForUpload(gw.fpc, gw.selCfg, ledger, held)
	}
	var ledger model.PhotoList
	seq := uint32(0)
	for round := 0; round < 25; round++ {
		for range 3 {
			ledger = append(ledger, photo(9, seq))
			seq++
		}
		var held [2]model.PhotoList
		for i := range held {
			for range 6 {
				held[i] = append(held[i], photo(model.NodeID(2+i), seq))
				seq++
			}
		}
		var plans [2]model.PhotoList
		var wg sync.WaitGroup
		for i := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				plans[i] = gw.selectForUpload(ledger, held[i])
			}()
		}
		wg.Wait()
		for i, plan := range plans {
			if want := fresh(ledger, held[i]); !slices.Equal(plan, want) {
				t.Fatalf("round %d upload %d: plan %v, fresh %v", round, i, plan.IDs(), want.IDs())
			}
		}
	}
	gw.upMu.Lock()
	held := model.PhotoList{photo(4, seq), photo(4, seq+1)}
	var plan model.PhotoList
	done := make(chan struct{})
	go func() {
		defer close(done)
		plan = gw.selectForUpload(ledger, held)
	}()
	<-done
	gw.upMu.Unlock()
	if want := fresh(ledger, held); !slices.Equal(plan, want) {
		t.Fatalf("fallback plan %v, fresh %v", plan.IDs(), want.IDs())
	}
}

// TestUploadBaseFootprints runs an ingest-shaped schedule over real
// contacts: a gateway captures photos and uploads them to the command
// center, contact after contact, and learns the grown ledger back each time.
// Its upload session keeps the ledger's coverage, so the base-footprint
// counter ends at the number of useful photos in the ledger of the last
// upload, not at the sum over every upload's ledger.
func TestUploadBaseFootprints(t *testing.T) {
	const pois = 8
	m := poiMapN(pois)
	o := obs.New(0, nil)
	cc := newTestPeer(t, model.CommandCenter, m, 0)
	gw := newTestPeer(t, 1, m, 64*mb, WithObserver(o))
	seq := uint32(0)
	rebuilt := 0 // what a session per upload would have added
	for round := 0; round < 8; round++ {
		for range 3 {
			if err := gw.AddPhoto(viewOfPoI(1, seq, int(seq)%pois, float64(seq*53%360))); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		ledger, _ := gw.cache.Get(model.CommandCenter)
		rebuilt += len(gw.fpc.AppendUseful(nil, ledger.Photos))
		contact(t, gw, cc)
	}
	contact(t, gw, cc) // nothing left to send: the upload plans on the full ledger
	ledger, _ := gw.cache.Get(model.CommandCenter)
	want := int64(len(gw.fpc.AppendUseful(nil, ledger.Photos)))
	got := o.Counter("selection.base_footprints").Value()
	if got != want || want != int64(len(cc.Photos())) {
		t.Fatalf("base footprints %d, want the %d useful ledger photos (command center holds %d; a rebuild per upload adds %d)",
			got, want, len(cc.Photos()), rebuilt)
	}
}
