package runner

import (
	"errors"
	"fmt"
)

// Sample is one metrics observation of a run, with every field numeric so
// summaries average cleanly (the simulator's integer Delivered becomes
// fractional under averaging anyway).
type Sample struct {
	Time      float64 `json:"t"`
	PointFrac float64 `json:"pt"`
	AspectRad float64 `json:"as"`
	Delivered float64 `json:"del"`
}

// Summary is the numeric projection of one run the orchestrator aggregates
// and checkpoints: everything an average needs, nothing more (in particular
// no photo collections), so a 50×N-point sweep retains O(workers) summaries
// instead of every run's full result.
type Summary struct {
	// Scheme labels the run; every run of a job must agree on it.
	Scheme string `json:"scheme,omitempty"`
	// Samples is the periodic metrics series; all runs of a job must share
	// one sample layout.
	Samples []Sample `json:"samples,omitempty"`
	// Final is the end-of-run observation.
	Final Sample `json:"final"`

	TransferredPhotos float64 `json:"xfer_photos"`
	TransferredBytes  float64 `json:"xfer_bytes"`
	NodeCrashes       float64 `json:"crashes,omitempty"`
	PhotosLostToCrash float64 `json:"photos_lost,omitempty"`
	AbortedTransfers  float64 `json:"aborts,omitempty"`
	MeanRecoverySec   float64 `json:"recovery_sec,omitempty"`
}

// scalarCount is the number of per-run scalar metrics outside the sample
// series (Final counts as one sample).
const scalarCount = 6

// flatten lays a summary out as one vector for the Welford accumulators:
// per-sample quadruples (Final last), then the scalars.
func flatten(s *Summary) []float64 {
	vec := make([]float64, 0, (len(s.Samples)+1)*4+scalarCount)
	for _, sm := range s.Samples {
		vec = append(vec, sm.Time, sm.PointFrac, sm.AspectRad, sm.Delivered)
	}
	vec = append(vec, s.Final.Time, s.Final.PointFrac, s.Final.AspectRad, s.Final.Delivered)
	vec = append(vec, s.TransferredPhotos, s.TransferredBytes,
		s.NodeCrashes, s.PhotosLostToCrash, s.AbortedTransfers, s.MeanRecoverySec)
	return vec
}

// unflatten rebuilds a summary from a vector produced by flatten.
func unflatten(scheme string, vec []float64, samples int) Summary {
	s := Summary{Scheme: scheme}
	if samples > 0 {
		s.Samples = make([]Sample, samples)
	}
	for i := 0; i < samples; i++ {
		s.Samples[i] = Sample{Time: vec[4*i], PointFrac: vec[4*i+1], AspectRad: vec[4*i+2], Delivered: vec[4*i+3]}
	}
	f := 4 * samples
	s.Final = Sample{Time: vec[f], PointFrac: vec[f+1], AspectRad: vec[f+2], Delivered: vec[f+3]}
	sc := vec[f+4:]
	s.TransferredPhotos, s.TransferredBytes = sc[0], sc[1]
	s.NodeCrashes, s.PhotosLostToCrash = sc[2], sc[3]
	s.AbortedTransfers, s.MeanRecoverySec = sc[4], sc[5]
	return s
}

// Aggregate is the streaming-aggregated outcome of one job.
type Aggregate struct {
	// Key is the job's identity.
	Key string
	// Runs is the number of aggregated runs.
	Runs int
	// Summary holds the per-field mean across runs.
	Summary
	// Var holds the per-field sample variance (n−1 denominator; all zero
	// for a single run). Time fields have zero variance by construction —
	// every run shares the sampling clock.
	Var Summary
}

// Aggregation errors.
var (
	// ErrLayout reports runs whose sample layouts or scheme names differ
	// within one job.
	ErrLayout = errors.New("runner: runs disagree on sample layout or scheme")
	// ErrIncomplete reports an aggregate finalised with missing runs.
	ErrIncomplete = errors.New("runner: aggregate is missing runs")
)

// Agg accumulates run summaries into streaming Welford mean/variance
// estimates. Summaries may arrive in any order (parallel workers finish
// out of order); Agg buffers out-of-order arrivals and applies them in run
// order, so the aggregate is bit-identical regardless of completion order —
// the property that makes parallel sweeps reproduce serial ones exactly.
// Memory is O(vector × out-of-order window), not O(runs).
//
// Agg is not safe for concurrent use; the orchestrator serialises Add calls.
type Agg struct {
	scheme  string
	samples int
	n       int
	mean    []float64
	m2      []float64
	next    int
	pending map[int][]float64
}

// NewAgg returns an empty aggregator; the first summary fixes the layout.
func NewAgg() *Agg {
	return &Agg{samples: -1, pending: make(map[int][]float64)}
}

// Add feeds the summary of run runIdx (0-based). Runs may arrive in any
// order but each index exactly once.
func (a *Agg) Add(runIdx int, s *Summary) error {
	if s == nil {
		return fmt.Errorf("runner: nil summary for run %d", runIdx)
	}
	if runIdx < a.next {
		return fmt.Errorf("runner: duplicate run %d", runIdx)
	}
	if _, dup := a.pending[runIdx]; dup {
		return fmt.Errorf("runner: duplicate run %d", runIdx)
	}
	if a.samples < 0 {
		a.samples = len(s.Samples)
		a.scheme = s.Scheme
	}
	if len(s.Samples) != a.samples || s.Scheme != a.scheme {
		return fmt.Errorf("%w: run %d has %d samples of %q, want %d of %q",
			ErrLayout, runIdx, len(s.Samples), s.Scheme, a.samples, a.scheme)
	}
	a.pending[runIdx] = flatten(s)
	for {
		vec, ok := a.pending[a.next]
		if !ok {
			return nil
		}
		delete(a.pending, a.next)
		a.next++
		a.apply(vec)
	}
}

// apply folds one vector into the Welford state.
func (a *Agg) apply(vec []float64) {
	if a.mean == nil {
		a.mean = make([]float64, len(vec))
		a.m2 = make([]float64, len(vec))
	}
	a.n++
	n := float64(a.n)
	for i, x := range vec {
		delta := x - a.mean[i]
		a.mean[i] += delta / n
		a.m2[i] += delta * (x - a.mean[i])
	}
}

// Count returns the number of summaries applied so far (contiguous from
// run 0; buffered out-of-order arrivals do not count yet).
func (a *Agg) Count() int { return a.n }

// Result finalises the aggregate for a job with the given key and expected
// run count.
func (a *Agg) Result(key string, runs int) (*Aggregate, error) {
	if a.n != runs || len(a.pending) != 0 {
		return nil, fmt.Errorf("%w: %s has %d of %d runs (%d buffered)",
			ErrIncomplete, key, a.n, runs, len(a.pending))
	}
	agg := &Aggregate{Key: key, Runs: runs, Summary: unflatten(a.scheme, a.mean, a.samples)}
	varVec := make([]float64, len(a.m2))
	if runs > 1 {
		inv := 1 / float64(runs-1)
		for i, m2 := range a.m2 {
			varVec[i] = m2 * inv
		}
	}
	agg.Var = unflatten(a.scheme, varVec, a.samples)
	return agg, nil
}
