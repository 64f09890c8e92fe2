package sim

import (
	"context"
	"fmt"

	"photodtn/internal/runner"
)

// RunFunc builds a fresh, independent (Config, Scheme) pair for one run.
// The seed parameterises everything random in the run (workload, gateway
// choice, Monte Carlo sampling, ...), so runs are reproducible and
// independent.
type RunFunc func(seed int64) (Config, Scheme, error)

// Average aggregates the results of repeated runs of one scheme, mirroring
// the paper's "each data point is the average of 50 simulation runs": the
// orchestrator's aggregate, whose embedded Summary is the per-field mean and
// whose Var is the per-field sample variance.
type Average = runner.Aggregate

// AvgSample is a Sample averaged over runs (Delivered becomes fractional).
type AvgSample = runner.Sample

// Summarize projects a run result onto the orchestrator's numeric summary
// (dropping the photo collection, which averages cannot use anyway).
func Summarize(r *Result) *runner.Summary {
	s := &runner.Summary{
		Scheme:            r.Scheme,
		Final:             summarySample(r.Final),
		TransferredPhotos: float64(r.TransferredPhotos),
		TransferredBytes:  float64(r.TransferredBytes),
		NodeCrashes:       float64(r.NodeCrashes),
		PhotosLostToCrash: float64(r.PhotosLostToCrash),
		AbortedTransfers:  float64(r.AbortedTransfers),
		MeanRecoverySec:   r.MeanRecoverySec,
	}
	if len(r.Samples) > 0 {
		s.Samples = make([]runner.Sample, len(r.Samples))
		for i, sm := range r.Samples {
			s.Samples[i] = summarySample(sm)
		}
	}
	return s
}

func summarySample(s Sample) runner.Sample {
	return runner.Sample{
		Time: s.Time, PointFrac: s.PointFrac, AspectRad: s.AspectRad,
		Delivered: float64(s.Delivered),
	}
}

// Cell adapts a RunFunc to the orchestrator: one cell builds the run for
// its seed, executes it under ctx, and returns the numeric summary.
// experiments uses it to assemble whole sweep matrices over one worker pool.
func Cell(f RunFunc) runner.CellFunc {
	return func(ctx context.Context, runIdx int, seed int64) (*runner.Summary, error) {
		cfg, scheme, err := f(seed)
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", runIdx, err)
		}
		res, err := RunContext(ctx, cfg, scheme)
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", runIdx, err)
		}
		return Summarize(res), nil
	}
}
