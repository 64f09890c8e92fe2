// Quickstart: the photo coverage model and the greedy selection in one
// minute. Two points of interest, a handful of photos, and a storage budget
// that forces choices.
package main

import (
	"fmt"

	"photodtn"
)

func main() {
	// The command center cares about two targets.
	pois := []photodtn.PoI{
		photodtn.NewPoI(0, photodtn.Vec{X: 0, Y: 0}),     // collapsed school
		photodtn.NewPoI(1, photodtn.Vec{X: 500, Y: 200}), // damaged bridge
	}
	// Effective angle θ = 30°: one photo credits a ±30° arc of aspects.
	m := photodtn.NewMap(pois, photodtn.Radians(30))

	// A participant's photos: metadata only — location, range, FOV,
	// orientation. No pixels anywhere.
	photo := func(seq uint32, at photodtn.Vec, lookDeg float64) photodtn.Photo {
		return photodtn.Photo{
			ID: photodtn.PhotoID(seq), Owner: 1,
			Location: at, Range: 150,
			FOV:         photodtn.Radians(50),
			Orientation: photodtn.Radians(lookDeg),
			Size:        4 << 20,
		}
	}
	photos := photodtn.PhotoList{
		photo(1, photodtn.Vec{X: 80, Y: 0}, 180),    // school from the east
		photo(2, photodtn.Vec{X: 85, Y: 5}, 182),    // ...nearly the same shot
		photo(3, photodtn.Vec{X: 0, Y: 90}, 270),    // school from the north
		photo(4, photodtn.Vec{X: 420, Y: 200}, 0),   // bridge from the west
		photo(5, photodtn.Vec{X: 2000, Y: 2000}, 0), // covers nothing
	}

	cov := m.Of(photos)
	pt, as := m.Normalized(cov)
	fmt.Printf("all %d photos: %.0f%% of PoIs covered, %.0f° mean aspect\n",
		len(photos), 100*pt, photodtn.Degrees(as))

	// Storage for only three photos: the greedy keeps one of the duplicate
	// school shots, the north shot, and the bridge shot — and drops the
	// irrelevant photo for free.
	fpc := photodtn.NewFootprintCache(m)
	res := photodtn.Reallocate(fpc, photodtn.DefaultSelectionConfig(), nil,
		photodtn.Alloc{Node: 1, P: 0.9, Capacity: 12 << 20, Photos: photos},
		photodtn.Alloc{Node: 2, P: 0.1, Capacity: 0},
	)
	fmt.Printf("greedy keeps %d photos under a 12 MB budget:\n", len(res.ASel))
	for i, p := range res.ASel {
		fmt.Printf("  %d. photo %d at %v looking %.0f°\n",
			i+1, uint64(p.ID), p.Location, photodtn.Degrees(p.Orientation))
	}
	fmt.Printf("their coverage: %v (vs %v with everything)\n", m.Of(res.ASel), cov)
}
