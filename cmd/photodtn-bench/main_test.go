package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestTailLevelLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.9}, {199, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(xs, c.q); !approxEqual(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5}, [3]float64{1.5, 4, 5.5}},
	} {
		q1, q2, q3 := quartiles(append([]float64(nil), c.xs...))
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{Parent: -1, Start: 0, End: 100},
		{Parent: 0, Start: 10, End: 30},
		{Parent: 0, Start: 20, End: 40}, // overlaps its sibling: counted once
		{Parent: 0, Start: 50, End: 60},
		{Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{Parent: 3, Start: 52, End: 55},  // a grandchild does not count twice
	}
	want := []int64{100 - 30 - 10 - 10, 20, 20, 10 - 3, 30, 3}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
	agg := aggregate([]span{{Layer: lSimRun, Parent: -1, Start: 0, End: 10}, {Layer: lOnPhoto, Parent: 0, Start: 2, End: 5}})
	if agg.calls[lOnPhoto] != 1 || agg.busy[lOnPhoto] != 3 || agg.self[lSimRun] != 7 {
		t.Errorf("aggregate = %+v", agg)
	}
}

func TestCompareAppliesBoundsPerMetricAndWorkload(t *testing.T) {
	bounds := &benchmarkFile{EndToEnd: []boundDef{
		{Name: "contacts_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "contact_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
	}}
	mk := func(name string, seed int64, rate, p50 float64, digests ...string) *result {
		return &result{Workload: name, Seed: seed, Correct: true, Digests: digests, Metrics: map[string]metric{
			"contacts_per_s": {Value: rate}, "contact_p50_ms": {Value: p50},
		}}
	}
	verdicts := func(base, next []*result) map[string]string {
		rows, problems := compareResults(bounds, base, next)
		if len(problems) != 0 {
			t.Fatalf("problems: %v", problems)
		}
		v := map[string]string{}
		for _, r := range rows {
			v[r.workload+"/"+r.metric] = r.verdict
		}
		return v
	}
	got := verdicts(
		[]*result{mk("a", 1, 100, 10, "x"), mk("b", 1, 100, 10)},
		[]*result{mk("a", 1, 95, 10.5, "x"), mk("b", 1, 89, 11.5)})
	want := map[string]string{
		"a/contacts_per_s": verdictOK, "a/contact_p50_ms": verdictOK,
		"b/contacts_per_s": verdictRegressed, "b/contact_p50_ms": verdictRegressed,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %s, want %s", k, got[k], v)
		}
	}

	// Passes are summarised by their medians; a base whose own spread is
	// wider than the bound leaves a worsening unresolved.
	got = verdicts(
		[]*result{mk("a", 1, 100, 10), mk("a", 2, 100, 5), mk("a", 3, 100, 20)},
		[]*result{mk("a", 1, 80, 12), mk("a", 2, 85, 12), mk("a", 3, 200, 12)})
	if got["a/contacts_per_s"] != verdictRegressed || got["a/contact_p50_ms"] != verdictUnresolved {
		t.Errorf("passes: %v", got)
	}

	// Same seed, different outputs: the change altered behaviour.
	_, problems := compareResults(bounds, []*result{mk("a", 1, 100, 10, "x")}, []*result{mk("a", 1, 100, 10, "y")})
	if len(problems) != 1 {
		t.Errorf("digest mismatch not reported: %v", problems)
	}
	// Different seeds have different inputs; their digests are not compared.
	_, problems = compareResults(bounds, []*result{mk("a", 1, 100, 10, "x")}, []*result{mk("a", 2, 100, 10, "y")})
	if len(problems) != 0 {
		t.Errorf("digests of different seeds compared: %v", problems)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric names, units and
// workloads the program reports in step with the repository's
// BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this checkout: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		benchmarkFile
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, listed []boundDef, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var setup float64
	for _, d := range b.EndToEnd {
		if d.Name == "setup_s" {
			setup = d.Bound
		}
	}
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > setup {
			t.Errorf("%s: bound %v outside (0, min(0.25, setup_s bound %v)]", d.Name, d.Bound, setup)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at tiny sizes, untraced and
// traced, and checks that each reports every metric with its unit and
// passes its own correctness checks.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rc := runConfig{workload: w.name, seed: 7, seconds: 0.01, trace: traced, stateDir: t.TempDir(), small: true}
			res, err := measure(w, rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: no %s", w.name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s in %q, want %q", w.name, traced, d.name, m.Unit, d.unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}
