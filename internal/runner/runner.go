// Package runner is the parallel experiment orchestrator: it shards a
// matrix of independent simulation cells — (job × run), where a job is one
// aggregation group such as (scheme, sweep point) — across a bounded worker
// pool and streams each job's results into Welford mean/variance aggregates.
//
// The design invariants, in order of importance:
//
//   - Determinism: run i of every job runs under seed BaseSeed+i, and
//     aggregation applies run summaries in run order regardless of
//     completion order, so results are bit-identical for any worker count,
//     any job ordering, and any interrupt/resume history.
//   - Bounded memory: aggregation is streaming; the orchestrator never
//     retains more than the out-of-order window of summaries per job.
//   - Isolation: a panicking or failing cell fails its job, not the sweep;
//     other jobs run to completion and the error reports which cells died.
//   - Cooperative cancellation: the context is threaded into every cell
//     (and from there into sim.RunContext's event loop); cancelling stops
//     new cells promptly and returns ctx's error.
//   - Resumability: with a Checkpoint attached, completed cells are
//     persisted as JSONL and an interrupted sweep restarts from what
//     finished, recomputing nothing.
//
// The package is simulation-agnostic on purpose: cells return numeric
// Summary values, so sim, experiments, and future workloads layer on top
// without an import cycle.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"photodtn/internal/obs"
)

// CellFunc executes one run of a job: run index runIdx under seed
// Options.BaseSeed+runIdx. It must be safe to call concurrently with other
// cells and should honour ctx for long computations (sim.RunContext does).
type CellFunc func(ctx context.Context, runIdx int, seed int64) (*Summary, error)

// Job is one aggregation group of the run matrix: Runs independent cells
// whose summaries are averaged together.
type Job struct {
	// Key identifies the job — in progress reports, errors, and checkpoint
	// records. Keys must be unique within one Run call and stable across
	// invocations for checkpoints to resume.
	Key string
	// Runs is the number of independent runs (cells) to aggregate.
	Runs int
	// Cell executes one run.
	Cell CellFunc
}

// Options configures one orchestrator run.
type Options struct {
	// Workers bounds the concurrent cells; <= 0 means GOMAXPROCS. Results
	// are bit-identical for every value.
	Workers int
	// BaseSeed is the seed of run 0 of every job; run i runs under
	// BaseSeed+i.
	BaseSeed int64
	// Checkpoint, when non-nil, records completed cells and resumes
	// previously completed ones. The caller owns Open/Close.
	Checkpoint *Checkpoint
	// Obs, when non-nil, receives the orchestrator's counters
	// (runner.cells_started/completed/failed/resumed) and the per-cell
	// wall-time histogram runner.cell_seconds. Nil is a strict no-op.
	Obs *obs.Observer
}

// ErrNoJobs is returned when Run is given an empty matrix.
var ErrNoJobs = errors.New("runner: no jobs")

// cellRef addresses one cell of the matrix.
type cellRef struct {
	job, run int
}

// Run executes the job matrix and returns one aggregate per job, in job
// order. On failure the returned error joins every failed job's first
// error; aggregates of jobs that completed are still returned (failed
// jobs yield nil entries), so a sweep survives isolated crashes. A
// cancelled context aborts promptly with its error; completed cells remain
// in the checkpoint for resumption.
func Run(ctx context.Context, jobs []Job, opts Options) ([]*Aggregate, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(jobs) == 0 {
		return nil, ErrNoJobs
	}
	seen := make(map[string]bool, len(jobs))
	for i, j := range jobs {
		switch {
		case j.Runs <= 0:
			return nil, fmt.Errorf("runner: job %q needs at least one run", j.Key)
		case j.Cell == nil:
			return nil, fmt.Errorf("runner: job %q has no cell function", j.Key)
		case seen[j.Key]:
			return nil, fmt.Errorf("runner: duplicate job key %q", j.Key)
		}
		seen[jobs[i].Key] = true
	}

	o := opts.Obs
	cStarted := o.Counter("runner.cells_started")
	cCompleted := o.Counter("runner.cells_completed")
	cFailed := o.Counter("runner.cells_failed")
	cResumed := o.Counter("runner.cells_resumed")
	hSeconds := o.Histogram("runner.cell_seconds")

	seedOf := func(run int) int64 { return opts.BaseSeed + int64(run) }

	var (
		mu      sync.Mutex
		aggs    = make([]*Agg, len(jobs))
		jobErrs = make([]error, len(jobs))
	)
	for i := range aggs {
		aggs[i] = NewAgg()
	}

	// Resolve checkpointed cells first — resumed work costs one map lookup —
	// and queue the rest.
	var work []cellRef
	for ji := range jobs {
		for run := 0; run < jobs[ji].Runs; run++ {
			if sum, ok := opts.Checkpoint.Lookup(jobs[ji].Key, run, seedOf(run)); ok {
				if err := aggs[ji].Add(run, sum); err != nil {
					jobErrs[ji] = errors.Join(jobErrs[ji], err)
					continue
				}
				cResumed.Inc()
				continue
			}
			work = append(work, cellRef{job: ji, run: run})
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(work) {
		workers = len(work)
	}
	ch := make(chan cellRef)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range ch {
				if ctx.Err() != nil {
					continue // drain: stop starting cells, let Run report ctx.Err
				}
				job := &jobs[c.job]
				mu.Lock()
				dead := jobErrs[c.job] != nil
				mu.Unlock()
				if dead {
					continue // the job already failed; don't burn cores on it
				}
				seed := seedOf(c.run)
				cStarted.Inc()
				start := time.Now()
				sum, err := runCell(ctx, job, c.run, seed)
				hSeconds.Observe(time.Since(start).Seconds())
				if err == nil && sum == nil {
					err = fmt.Errorf("runner: job %q run %d returned no summary", job.Key, c.run)
				}
				if err != nil {
					if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
						continue // cancellation, not a cell failure
					}
					cFailed.Inc()
					mu.Lock()
					jobErrs[c.job] = errors.Join(jobErrs[c.job],
						fmt.Errorf("runner: job %q run %d: %w", job.Key, c.run, err))
					mu.Unlock()
					continue
				}
				cCompleted.Inc()
				mu.Lock()
				addErr := aggs[c.job].Add(c.run, sum)
				if addErr != nil {
					jobErrs[c.job] = errors.Join(jobErrs[c.job], addErr)
				}
				mu.Unlock()
				if addErr == nil {
					if err := opts.Checkpoint.Record(job.Key, c.run, seed, sum); err != nil {
						mu.Lock()
						jobErrs[c.job] = errors.Join(jobErrs[c.job], err)
						mu.Unlock()
					}
				}
			}
		}()
	}
	for _, c := range work {
		ch <- c
	}
	close(ch)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("runner: interrupted: %w", err)
	}
	out := make([]*Aggregate, len(jobs))
	var errs []error
	for i := range jobs {
		if jobErrs[i] != nil {
			errs = append(errs, jobErrs[i])
			continue
		}
		agg, err := aggs[i].Result(jobs[i].Key, jobs[i].Runs)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out[i] = agg
	}
	if len(errs) > 0 {
		return out, errors.Join(errs...)
	}
	return out, nil
}

// runCell executes one cell with panic isolation: a crashing run surfaces
// as that cell's error (with its stack) instead of killing the sweep.
func runCell(ctx context.Context, job *Job, runIdx int, seed int64) (sum *Summary, err error) {
	defer func() {
		if r := recover(); r != nil {
			sum, err = nil, fmt.Errorf("cell panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return job.Cell(ctx, runIdx, seed)
}
