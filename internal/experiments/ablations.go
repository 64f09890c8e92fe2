package experiments

import (
	"fmt"

	"photodtn/internal/core"
	"photodtn/internal/geo"
	"photodtn/internal/runner"
	"photodtn/internal/sim"
)

// RunAveragedScheme is RunAveraged with a custom scheme factory, used by
// the ablation studies to run non-default configurations of the framework.
// The label names the variant: it keys the orchestrator job (and any
// checkpoint records), so two factories with identical Params but different
// internal configuration must carry different labels — the factory itself is
// opaque and cannot be digested.
func RunAveragedScheme(p Params, label string, factory func() sim.Scheme, opts Options) (*sim.Average, error) {
	opts = opts.normalized()
	if p.Obs == nil {
		p.Obs = opts.Obs
	}
	job := runner.Job{
		Key:  p.jobKey("variant:" + label),
		Runs: opts.Runs,
		Cell: sim.Cell(func(seed int64) (sim.Config, sim.Scheme, error) {
			cfg, _, err := Build(p, SchemeOurs, seed)
			if err != nil {
				return sim.Config{}, nil, err
			}
			return cfg, factory(), nil
		}),
	}
	aggs, err := runner.Run(opts.context(), []runner.Job{job}, opts.runnerOptions())
	if err != nil {
		return nil, err
	}
	return aggs[0], nil
}

// AblationPthld sweeps the metadata validity threshold P_thld (DESIGN.md:
// "The value of P_thld is currently determined by simulations"). Small
// thresholds invalidate cached metadata aggressively (approaching
// NoMetadata); 1.0 never invalidates (stale knowledge misguides selection).
func AblationPthld(opts Options) (*Figure, error) {
	opts = opts.normalized()
	values := []float64{0.2, 0.5, 0.8, 0.95, 0.999}
	if opts.Quick {
		values = []float64{0.2, 0.8}
	}
	p := DefaultParams(MIT)
	p.Obs = opts.Obs
	if opts.Quick {
		p.SpanHours = 60
	}
	fig := &Figure{
		ID:     "ablation-pthld",
		Title:  "Ablation: metadata validity threshold P_thld (our scheme, MIT-like trace)",
		XLabel: "P_thld",
		Notes:  []string{fmt.Sprintf("averaged over %d runs", opts.Runs)},
	}
	s := Series{Label: SchemeOurs}
	for _, v := range values {
		cfg := core.DefaultConfig()
		cfg.Pthld = v
		avg, err := RunAveragedScheme(p, fmt.Sprintf("pthld=%g", v), func() sim.Scheme { return core.New(cfg) }, opts)
		if err != nil {
			return nil, fmt.Errorf("ablation pthld %v: %w", v, err)
		}
		s.X = append(s.X, v)
		s.PointFrac = append(s.PointFrac, avg.Final.PointFrac)
		s.AspectDeg = append(s.AspectDeg, degrees(avg.Final.AspectRad))
		s.Delivered = append(s.Delivered, avg.Final.Delivered)
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// AblationTheta sweeps the effective angle θ: it controls how wide an
// aspect arc one photo covers, trading per-photo credit against the number
// of photos needed for all-around views.
func AblationTheta(opts Options) (*Figure, error) {
	opts = opts.normalized()
	values := []float64{10, 20, 30, 45, 60}
	if opts.Quick {
		values = []float64{20, 40}
	}
	fig := &Figure{
		ID:     "ablation-theta",
		Title:  "Ablation: effective angle θ (our scheme, MIT-like trace)",
		XLabel: "θ (degrees)",
		Notes: []string{
			fmt.Sprintf("averaged over %d runs", opts.Runs),
			"aspect coverage is measured with the same θ it is optimised for",
		},
	}
	s := Series{Label: SchemeOurs}
	for _, deg := range values {
		p := DefaultParams(MIT)
		p.Theta = geo.Radians(deg)
		if opts.Quick {
			p.SpanHours = 60
		}
		avg, err := RunAveragedContext(opts.context(), p, SchemeOurs, opts)
		if err != nil {
			return nil, fmt.Errorf("ablation theta %v: %w", deg, err)
		}
		s.X = append(s.X, deg)
		s.PointFrac = append(s.PointFrac, avg.Final.PointFrac)
		s.AspectDeg = append(s.AspectDeg, degrees(avg.Final.AspectRad))
		s.Delivered = append(s.Delivered, avg.Final.Delivered)
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// AblationEvaluator compares expected-coverage evaluation fidelities: exact
// enumeration (large ExactLimit) versus pure Monte Carlo with decreasing
// sample counts. It quantifies how insensitive the greedy's final coverage
// is to the evaluation budget — the justification for the cheap defaults.
func AblationEvaluator(opts Options) (*Figure, error) {
	opts = opts.normalized()
	type variant struct {
		label      string
		exactLimit int
		samples    int
	}
	variants := []variant{
		{"exact≤10", 10, 64},
		{"mc64", 0, 64},
		{"mc16", 0, 16},
		{"mc4", 0, 4},
	}
	if opts.Quick {
		variants = variants[1:3]
	}
	p := DefaultParams(MIT)
	p.Obs = opts.Obs
	if opts.Quick {
		p.SpanHours = 60
	}
	fig := &Figure{
		ID:     "ablation-evaluator",
		Title:  "Ablation: expected-coverage evaluation fidelity (our scheme, MIT-like trace)",
		XLabel: "variant#",
		Notes:  []string{fmt.Sprintf("averaged over %d runs", opts.Runs)},
	}
	for _, v := range variants {
		cfg := core.DefaultConfig()
		cfg.Selection.ExactLimit = v.exactLimit
		cfg.Selection.Samples = v.samples
		avg, err := RunAveragedScheme(p, "evaluator="+v.label, func() sim.Scheme { return core.New(cfg) }, opts)
		if err != nil {
			return nil, fmt.Errorf("ablation evaluator %s: %w", v.label, err)
		}
		fig.Series = append(fig.Series, Series{
			Label:     v.label,
			X:         []float64{0},
			PointFrac: []float64{avg.Final.PointFrac},
			AspectDeg: []float64{degrees(avg.Final.AspectRad)},
			Delivered: []float64{avg.Final.Delivered},
		})
	}
	return fig, nil
}
