package geo

// FuzzArcSet drives random Add/AddSet/Gain/AppendUncovered sequences against
// an ArcSet and checks the structure's invariants after every mutation:
//
//   - the interval list stays sorted, disjoint, and non-adjacent, with every
//     interval inside [0, 2π];
//   - the memoized measure equals a fresh in-order recomputation bit-for-bit
//     (the property that makes Measure a pure concurrent-safe read);
//   - Gain(a) equals the measure delta that actually adding a produces, and
//     the pieces AppendUncovered emits are disjoint, uncovered, inside a,
//     and sum to Gain(a);
//   - the final set agrees with a dense-bitmap oracle painted arc by arc.

import (
	"math"
	"testing"
)

// fuzzBins is the oracle resolution. Each painted arc can disagree with the
// exact set by at most one bin at each of its ≤ 4 boundaries.
const fuzzBins = 2048

func FuzzArcSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x40, 0x00})
	// A wrap-around add, a full-circle clamp, an AddSet, and query ops.
	f.Add([]byte{
		0x00, 0xf0, 0x00, 0x20, 0x00, // Add near the seam
		0x00, 0x00, 0xff, 0xff, 0xff, // Add a clamped (full) width
		0x01, 0x40, 0x00, 0x10, 0x00, // AddSet
		0x02, 0x80, 0x00, 0x08, 0x00, // Gain consistency probe
		0x03, 0xc0, 0x00, 0x30, 0x00, // AppendUncovered probe
	})
	f.Add([]byte{
		0x00, 0x10, 0x00, 0x00, 0x01, // sliver
		0x00, 0x10, 0x01, 0x00, 0x01, // adjacent sliver (merge path)
		0x03, 0x00, 0x00, 0xff, 0x7f,
		0x01, 0x55, 0x55, 0x22, 0x22,
		0x02, 0xaa, 0xaa, 0x11, 0x11,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		var s ArcSet
		bitmap := make([]bool, fuzzBins)
		painted := 0 // arcs painted into the oracle
		var prev Arc

		paint := func(a Arc) {
			painted++
			for i := 0; i < fuzzBins; i++ {
				if !bitmap[i] && a.Contains((float64(i)+0.5)/fuzzBins*TwoPi) {
					bitmap[i] = true
				}
			}
		}

		for off := 0; off+5 <= len(data); off += 5 {
			op := data[off]
			start := float64(uint16(data[off+1])<<8|uint16(data[off+2])) / 65536 * TwoPi
			// Widths range up to ~2.5π to exercise the clamp path.
			width := float64(uint16(data[off+3])<<8|uint16(data[off+4])) / 65536 * 2.5 * math.Pi
			a := NewArc(start, width)

			switch op % 4 {
			case 0: // Add
				s.Add(a)
				paint(a)
			case 1: // AddSet built from this arc and the previous one
				s.AddSet(NewArcSet(prev, a))
				paint(prev)
				paint(a)
			case 2: // Gain must equal the measure delta of really adding
				g := s.Gain(a)
				if g < -1e-12 || g > a.Width+1e-12 {
					t.Fatalf("Gain(%v) = %v out of [0, width]", a, g)
				}
				c := s.Clone()
				c.Add(a)
				if d := c.Measure() - s.Measure(); math.Abs(d-g) > 1e-9 {
					t.Fatalf("Gain(%v) = %v but measure delta = %v", a, g, d)
				}
			case 3: // AppendUncovered: disjoint pieces inside a, summing to Gain
				pieces := s.AppendUncovered(a, nil)
				avs, nav := a.splitInto()
				var sum float64
				for pi, p := range pieces {
					if p.Width <= 0 {
						t.Fatalf("AppendUncovered(%v): empty piece %v", a, p)
					}
					// A piece stores (Start, Width), so Start+Width can land
					// an ulp past the interval end it was cut from.
					inside := false
					for _, iv := range avs[:nav] {
						if iv.lo <= p.Start && p.Start+p.Width <= iv.hi+1e-12 {
							inside = true
							break
						}
					}
					if !inside {
						t.Fatalf("AppendUncovered(%v): piece %v outside the arc", a, p)
					}
					if ov := s.Overlap(p); ov > 1e-9 {
						t.Fatalf("AppendUncovered(%v): piece %v overlaps the set by %v", a, p, ov)
					}
					for _, q := range pieces[pi+1:] {
						if p.Start < q.Start+q.Width && q.Start < p.Start+p.Width {
							t.Fatalf("AppendUncovered(%v): overlapping pieces %v, %v", a, p, q)
						}
					}
					sum += p.Width
				}
				if g := s.Gain(a); math.Abs(sum-g) > 1e-9 {
					t.Fatalf("AppendUncovered(%v): pieces sum %v, Gain %v", a, sum, g)
				}
			}
			prev = a
			checkArcSetInvariants(t, &s)
		}

		// Dense-bitmap oracle: measure within boundary-resolution tolerance.
		binw := TwoPi / fuzzBins
		var oracle float64
		for _, covered := range bitmap {
			if covered {
				oracle += binw
			}
		}
		tol := float64(4*painted+4) * binw
		if math.Abs(oracle-s.Measure()) > tol {
			t.Fatalf("measure %v vs bitmap oracle %v (tol %v, %d arcs painted)",
				s.Measure(), oracle, tol, painted)
		}
	})
}

// checkArcSetInvariants asserts the representation invariants of an ArcSet.
func checkArcSetInvariants(t *testing.T, s *ArcSet) {
	t.Helper()
	for i, iv := range s.ivs {
		if !(iv.lo < iv.hi) || iv.lo < 0 || iv.hi > TwoPi {
			t.Fatalf("interval %d out of order or range: [%v, %v]", i, iv.lo, iv.hi)
		}
		if i > 0 && !(s.ivs[i-1].hi < iv.lo) {
			t.Fatalf("intervals %d/%d not disjoint/sorted: [%v,%v] then [%v,%v]",
				i-1, i, s.ivs[i-1].lo, s.ivs[i-1].hi, iv.lo, iv.hi)
		}
	}
	var m float64
	for _, iv := range s.ivs {
		m += iv.hi - iv.lo
	}
	if m != s.measure {
		t.Fatalf("memoized measure %v != recomputed %v", s.measure, m)
	}
}
