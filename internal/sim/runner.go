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

// AvgSample is a Sample averaged over runs (Delivered becomes fractional).
type AvgSample struct {
	Time      float64
	PointFrac float64
	AspectRad float64
	Delivered float64
}

// Average aggregates the results of repeated runs of one scheme, mirroring
// the paper's "each data point is the average of 50 simulation runs".
type Average struct {
	Scheme            string
	Runs              int
	Samples           []AvgSample
	Final             AvgSample
	TransferredPhotos float64
	TransferredBytes  float64
	// Fault metrics (zero without an enabled fault model).
	NodeCrashes       float64
	PhotosLostToCrash float64
	AbortedTransfers  float64
	MeanRecoverySec   float64

	// FinalVar is the per-field sample variance of Final across runs
	// (n−1 denominator; all zero for a single run).
	FinalVar AvgSample
}

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

// AverageOf converts an orchestrator aggregate back into the simulator's
// Average (including the Final variance the streaming aggregation provides
// for free).
func AverageOf(agg *runner.Aggregate) *Average {
	m := &agg.Mean
	avg := &Average{
		Scheme:            m.Scheme,
		Runs:              agg.Runs,
		Final:             avgSample(m.Final),
		TransferredPhotos: m.TransferredPhotos,
		TransferredBytes:  m.TransferredBytes,
		NodeCrashes:       m.NodeCrashes,
		PhotosLostToCrash: m.PhotosLostToCrash,
		AbortedTransfers:  m.AbortedTransfers,
		MeanRecoverySec:   m.MeanRecoverySec,
		FinalVar:          avgSample(agg.Var.Final),
	}
	if len(m.Samples) > 0 {
		avg.Samples = make([]AvgSample, len(m.Samples))
		for i, sm := range m.Samples {
			avg.Samples[i] = avgSample(sm)
		}
	}
	return avg
}

func avgSample(s runner.Sample) AvgSample {
	return AvgSample{Time: s.Time, PointFrac: s.PointFrac, AspectRad: s.AspectRad, Delivered: s.Delivered}
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

// LegacySeeds is the historical repeated-run seed family — baseSeed,
// baseSeed+1, ... — kept so committed reports and seed-parity tests keep
// their exact seeds. New orchestrations should prefer the default
// runner.CellSeed derivation.
func LegacySeeds(baseSeed int64) runner.SeedFunc {
	return func(runIdx int) int64 { return baseSeed + int64(runIdx) }
}
