package experiments

import (
	"context"
	"fmt"
	"strings"

	"photodtn/internal/geo"
	"photodtn/internal/obs"
	"photodtn/internal/runner"
)

// Series is one labelled curve of a figure: metric values over the X axis.
type Series struct {
	Label string
	// X holds the independent variable (hours, GB, photos/hour, ...).
	X []float64
	// PointFrac is the normalized point coverage per X.
	PointFrac []float64
	// AspectDeg is the mean covered aspect per PoI in degrees per X.
	AspectDeg []float64
	// Delivered is the (average) number of photos delivered per X.
	Delivered []float64
}

// Figure is a reproduced paper figure: a set of series over a common axis.
type Figure struct {
	// ID is the experiment identifier, e.g. "fig5".
	ID string
	// Title describes the figure.
	Title string
	// XLabel names the independent variable.
	XLabel string
	// Series holds one curve per scheme/variant.
	Series []Series
	// Notes carries caveats (substitutions, reduced runs, ...).
	Notes []string
}

// Format renders the figure as aligned text tables, one per metric.
func (f *Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", strings.ToUpper(f.ID), f.Title)
	for _, note := range f.Notes {
		fmt.Fprintf(&b, "   note: %s\n", note)
	}
	metrics := []struct {
		name string
		get  func(Series) []float64
		unit string
	}{
		{"point coverage", func(s Series) []float64 { return s.PointFrac }, "fraction of PoIs"},
		{"aspect coverage", func(s Series) []float64 { return s.AspectDeg }, "mean degrees per PoI"},
		{"photos delivered", func(s Series) []float64 { return s.Delivered }, "count"},
	}
	for _, m := range metrics {
		if len(f.Series) == 0 || len(m.get(f.Series[0])) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n-- %s (%s) --\n", m.name, m.unit)
		// Header row: X values.
		fmt.Fprintf(&b, "%-22s", f.XLabel)
		for _, x := range f.Series[0].X {
			fmt.Fprintf(&b, "%10s", trimFloat(x))
		}
		b.WriteByte('\n')
		for _, s := range f.Series {
			fmt.Fprintf(&b, "%-22s", s.Label)
			for _, v := range m.get(s) {
				fmt.Fprintf(&b, "%10.3f", v)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.2f", x)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Options controls experiment scale. The paper averages 50 runs per data
// point; the default here is smaller so the whole suite regenerates in
// minutes — raise Runs for paper-grade smoothness.
type Options struct {
	// Runs is the number of averaged runs per data point.
	Runs int
	// BaseSeed seeds the run family.
	BaseSeed int64
	// Quick trims sweeps and spans for use in benchmarks and smoke tests.
	Quick bool
	// Obs optionally attaches an observer to every run of the experiment;
	// see Params.Obs. Nil leaves every run unobserved (bit-identical). The
	// orchestrator's own counters (runner.cells_*) land here too.
	Obs *obs.Observer
	// Workers bounds the number of concurrently simulated runs; <= 0 means
	// GOMAXPROCS. Results are bit-identical for every value — the
	// orchestrator applies summaries in run order no matter which worker
	// finishes first.
	Workers int
	// Checkpoint, when non-nil, records every completed (scenario, scheme,
	// run) cell and resumes previously completed ones, including across
	// figures that share scenarios. The caller owns Open/Close.
	Checkpoint *runner.Checkpoint

	// ctx carries the experiment's cancellation context; set it with
	// WithContext. Unexported so the zero Options value stays valid.
	ctx context.Context
}

// WithContext returns a copy of the options carrying ctx: cancelling it
// aborts the experiment's remaining runs at the engine's next cancellation
// point (completed cells stay in the checkpoint, if one is attached).
func (o Options) WithContext(ctx context.Context) Options {
	o.ctx = ctx
	return o
}

// context returns the experiment's context, never nil.
func (o Options) context() context.Context {
	if o.ctx == nil {
		return context.Background()
	}
	return o.ctx
}

// runnerOptions projects the experiment options onto the orchestrator's.
func (o Options) runnerOptions() runner.Options {
	return runner.Options{
		Workers:    o.Workers,
		BaseSeed:   o.BaseSeed,
		Checkpoint: o.Checkpoint,
		Obs:        o.Obs,
	}
}

func (o Options) normalized() Options {
	if o.Runs <= 0 {
		o.Runs = 3
	}
	return o
}

// degrees converts radians to degrees (local convenience).
func degrees(rad float64) float64 { return geo.Degrees(rad) }
