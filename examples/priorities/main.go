// Priorities demonstrates the paper's §II-C extensions: weighted PoIs (a
// hospital matters more than a warehouse), weighted aspects (the hospital's
// main entrance matters most), and the photo-quality threshold. Watch the
// greedy's choices flip as the priorities change.
package main

import (
	"fmt"

	"photodtn"
	"photodtn/internal/coverage"
)

func main() {
	hospital := photodtn.Vec{X: 0, Y: 0}
	warehouse := photodtn.Vec{X: 600, Y: 0}

	photo := func(seq uint32, at photodtn.Vec, lookDeg float64) photodtn.Photo {
		return photodtn.Photo{
			ID: photodtn.PhotoID(seq), Owner: 1, Location: at,
			Range: 150, FOV: photodtn.Radians(50),
			Orientation: photodtn.Radians(lookDeg), Size: 4 << 20,
		}
	}
	// One photo of each target, plus a second hospital view from the south
	// (the entrance side).
	hospitalEast := photo(1, photodtn.Vec{X: 90, Y: 0}, 180)
	hospitalSouth := photo(2, photodtn.Vec{X: 0, Y: -90}, 90)
	warehouseShot := photo(0, photodtn.Vec{X: 510, Y: 0}, 0) // lowest ID: wins ties
	all := photodtn.PhotoList{hospitalEast, hospitalSouth, warehouseShot}

	pick := func(m *photodtn.Map, budgetPhotos int64) photodtn.PhotoList {
		fpc := photodtn.NewFootprintCache(m)
		res := photodtn.Reallocate(fpc, photodtn.DefaultSelectionConfig(), nil,
			photodtn.Alloc{Node: 1, P: 0.9, Capacity: budgetPhotos * (4 << 20), Photos: all},
			photodtn.Alloc{Node: 2, P: 0.1, Capacity: 0},
		)
		return res.ASel
	}
	show := func(title string, sel photodtn.PhotoList) {
		fmt.Printf("%-46s →", title)
		for _, p := range sel {
			name := map[uint32]string{1: "hospital/east", 2: "hospital/south", 0: "warehouse"}[uint32(p.ID)]
			fmt.Printf(" %s", name)
		}
		fmt.Println()
	}

	// 1. Unweighted: with room for two photos, point coverage wins — one
	// photo per target.
	plain := photodtn.NewMap([]photodtn.PoI{
		photodtn.NewPoI(0, hospital), photodtn.NewPoI(1, warehouse),
	}, photodtn.Radians(30))
	show("equal priorities, 2-photo budget", pick(plain, 2))

	// 2. Weighted PoI: the hospital weighs 5×. A single-photo budget now
	// must go to the hospital.
	weighted := photodtn.NewMap([]photodtn.PoI{
		{ID: 0, Location: hospital, Weight: 5},
		{ID: 1, Location: warehouse, Weight: 1},
	}, photodtn.Radians(30))
	show("hospital ×5, 1-photo budget", pick(weighted, 1))
	show("equal priorities, 1-photo budget", pick(plain, 1))

	// 3. Weighted aspects: the hospital's south-facing entrance arc weighs
	// 10×, so the south view beats the east view.
	entrance := coverage.AspectProfile{Base: 1, Segments: []coverage.WeightedArc{
		{Arc: coverage.ArcAroundDeg(270, 40), Weight: 10},
	}}
	aspectMap := photodtn.NewMap([]photodtn.PoI{
		photodtn.NewPoI(0, hospital), photodtn.NewPoI(1, warehouse),
	}, photodtn.Radians(30), coverage.WithAspectProfile(0, entrance))
	show("entrance aspects ×10, 1-photo budget", pick(aspectMap, 1))

	// 4. Quality threshold: a blurred photo is filtered before the model
	// ever sees it (shown via the framework's capture filter in tests;
	// here, the metadata carries the score).
	blurry := hospitalSouth
	blurry.Quality = 0.1
	fmt.Printf("\nblurred south view carries quality %.1f — the framework's\n", blurry.Quality)
	fmt.Println("MinQuality knob drops it at capture (core.Config.MinQuality).")
}
