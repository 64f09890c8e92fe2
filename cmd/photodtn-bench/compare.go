package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// boundDef is one end-to-end metric as BENCHMARK.json states it.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read bounds: %w", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(buf, &b); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &b, nil
}

// worsening returns by what share of base the new value is worse: positive
// is worse, negative better.
func worsening(d boundDef, base, next float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - next) / base
	}
	return (next - base) / base
}

// Verdicts of a comparison row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved" // worse than the bound, but so is the base's own spread
)

// row is one metric of one workload in a comparison: the medians of the
// base and new passes, and the base passes' quartile spread.
type row struct {
	workload, metric, unit string
	base, next, worse      float64
	spread, bound          float64
	verdict                string
}

// compareResults applies the bounds to every end-to-end metric of every
// workload present in both result sets. A result set may hold several
// passes of a workload; each side is then summarised by its median, and a
// worsening beyond the bound whose base spread is wider than the bound is
// unresolved rather than a regression. Passes of the same seed must agree
// on every unit digest both measured.
func compareResults(bounds *benchmarkFile, base, next []*result) (rows []row, problems []string) {
	group := func(rs []*result) (map[string][]*result, []string) {
		by := make(map[string][]*result)
		var order []string
		for _, r := range rs {
			if len(by[r.Workload]) == 0 {
				order = append(order, r.Workload)
			}
			by[r.Workload] = append(by[r.Workload], r)
		}
		return by, order
	}
	baseBy, order := group(base)
	newBy, _ := group(next)
	for _, name := range order {
		bs, ns := baseBy[name], newBy[name]
		if len(ns) == 0 {
			problems = append(problems, fmt.Sprintf("%s: missing from the new results", name))
			continue
		}
		for _, r := range append(append([]*result(nil), bs...), ns...) {
			if !r.Correct {
				problems = append(problems, fmt.Sprintf("%s seed %d: failed its checks", name, r.Seed))
			}
		}
		for _, b := range bs {
			for _, n := range ns {
				if b.Seed != n.Seed {
					continue
				}
				for i := 0; i < min(len(b.Digests), len(n.Digests)); i++ {
					if b.Digests[i] != n.Digests[i] {
						problems = append(problems, fmt.Sprintf("%s seed %d: unit %d digest %s, base %s",
							name, b.Seed, i, n.Digests[i], b.Digests[i]))
					}
				}
			}
		}
		for _, d := range bounds.EndToEnd {
			bv, nv := values(bs, d.Name), values(ns, d.Name)
			if len(bv) == 0 || len(nv) == 0 {
				continue // a traced result holds no end-to-end metrics
			}
			q1, bm, q3 := quartiles(bv)
			nm := median(nv)
			r := row{workload: name, metric: d.Name, unit: d.Unit, base: bm, next: nm,
				worse: worsening(d, bm, nm), spread: ratio(q3-q1, bm), bound: d.Bound, verdict: verdictOK}
			switch {
			case r.worse <= d.Bound:
			case r.spread > d.Bound:
				r.verdict = verdictUnresolved
			default:
				r.verdict = verdictRegressed
			}
			rows = append(rows, r)
		}
	}
	return rows, problems
}

// values collects one metric over a workload's passes.
func values(rs []*result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func compareFiles(basePath, newPath, benchPath string, w io.Writer) error {
	bounds, err := readBenchmark(benchPath)
	if err != nil {
		return err
	}
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	next, err := readResults(newPath)
	if err != nil {
		return err
	}
	rows, problems := compareResults(bounds, base, next)
	fmt.Fprintf(w, "%-14s %-24s %-5s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "base", "new", "worse", "spread", "bound", "verdict")
	regressed := 0
	for _, r := range rows {
		if r.verdict == verdictRegressed {
			regressed++
		}
		fmt.Fprintf(w, "%-14s %-24s %-5s %12.6g %12.6g %7.2f%% %7.2f%% %5.0f%%  %s\n",
			r.workload, r.metric, r.unit, r.base, r.next, 100*r.worse, 100*r.spread, 100*r.bound, r.verdict)
	}
	for _, p := range problems {
		fmt.Fprintln(w, "problem:", p)
	}
	if regressed > 0 || len(problems) > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bound; %d other problems: %s",
			regressed, len(problems), strings.Join(problems, "; "))
	}
	return nil
}
