package runner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photodtn/internal/obs"
)

// mathCell is a deterministic, seed-sensitive cell: every field derives
// from the seed through floating-point arithmetic so any seed or ordering
// drift shows up bitwise.
func mathCell(samples int) CellFunc {
	return func(_ context.Context, runIdx int, seed int64) (*Summary, error) {
		x := float64(uint32(seed)) / (1 << 32)
		s := &Summary{Scheme: "math"}
		for i := 0; i < samples; i++ {
			t := float64(i+1) * 100
			s.Samples = append(s.Samples, Sample{
				Time:      t,
				PointFrac: math.Sin(x*t) * 0.5,
				AspectRad: math.Sqrt(x * t),
				Delivered: math.Floor(x * t),
			})
		}
		s.Final = Sample{Time: float64(samples+1) * 100, PointFrac: x, AspectRad: 2 * x, Delivered: 10 * x}
		s.TransferredPhotos = x * 1000
		s.TransferredBytes = x * 1e9
		s.MeanRecoverySec = x / 3
		return s, nil
	}
}

func testJobs(n, runs, samples int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Key: fmt.Sprintf("job-%d", i), Runs: runs, Cell: mathCell(samples)}
	}
	return jobs
}

// summariesBitIdentical compares two aggregates field-for-field on exact
// float bits (reflect.DeepEqual does exactly that for float64, including
// distinguishing ±0).
func aggregatesBitIdentical(t *testing.T, a, b []*Aggregate) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("aggregates differ:\n%+v\nvs\n%+v", a, b)
	}
}

func TestRunParallelBitIdenticalAcrossWorkerCounts(t *testing.T) {
	jobs := testJobs(5, 7, 3)
	base, err := Run(context.Background(), jobs, Options{Workers: 1, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := Run(context.Background(), testJobs(5, 7, 3), Options{Workers: workers, BaseSeed: 42})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		aggregatesBitIdentical(t, base, got)
	}
}

func TestSeedDerivationStableAcrossCellReordering(t *testing.T) {
	// The same job keyed identically must aggregate identically no matter
	// where it sits in the matrix: seeds depend on (base, run index) only.
	jobs := testJobs(4, 5, 2)
	fwd, err := Run(context.Background(), jobs, Options{Workers: 3, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rev := testJobs(4, 5, 2)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	got, err := Run(context.Background(), rev, Options{Workers: 3, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		aggregatesBitIdentical(t,
			[]*Aggregate{fwd[i]},
			[]*Aggregate{got[len(rev)-1-i]})
	}
}

func TestRunSeedsAreBasePlusRun(t *testing.T) {
	// Run i of every job runs under BaseSeed+i: the seed family every
	// committed report and checkpoint was made with.
	const base, runs = 1000, 4
	var mu sync.Mutex
	seeds := make(map[string][]int64)
	record := func(key string) CellFunc {
		return func(_ context.Context, runIdx int, seed int64) (*Summary, error) {
			mu.Lock()
			defer mu.Unlock()
			if seeds[key] == nil {
				seeds[key] = make([]int64, runs)
			}
			seeds[key][runIdx] = seed
			return &Summary{}, nil
		}
	}
	jobs := []Job{{Key: "a", Runs: runs, Cell: record("a")}, {Key: "b", Runs: runs, Cell: record("b")}}
	if _, err := Run(context.Background(), jobs, Options{Workers: 3, BaseSeed: base}); err != nil {
		t.Fatal(err)
	}
	want := []int64{base, base + 1, base + 2, base + 3}
	for _, key := range []string{"a", "b"} {
		if !reflect.DeepEqual(seeds[key], want) {
			t.Fatalf("job %q seeds = %v, want %v", key, seeds[key], want)
		}
	}
}

func TestAggWelfordMeanVariance(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	a := NewAgg()
	// Feed out of order: 0 last.
	for i := len(vals) - 1; i >= 0; i-- {
		if err := a.Add(i, &Summary{Final: Sample{PointFrac: vals[i]}}); err != nil {
			t.Fatal(err)
		}
	}
	agg, err := a.Result("welford", len(vals))
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	var m2 float64
	for _, v := range vals {
		m2 += (v - mean) * (v - mean)
	}
	wantVar := m2 / float64(len(vals)-1)
	if math.Abs(agg.Final.PointFrac-mean) > 1e-12 {
		t.Fatalf("mean = %v, want %v", agg.Final.PointFrac, mean)
	}
	if math.Abs(agg.Var.Final.PointFrac-wantVar) > 1e-12 {
		t.Fatalf("var = %v, want %v", agg.Var.Final.PointFrac, wantVar)
	}
}

func TestAggRejectsLayoutMismatchAndDuplicates(t *testing.T) {
	a := NewAgg()
	if err := a.Add(0, &Summary{Scheme: "x", Samples: []Sample{{}}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(1, &Summary{Scheme: "x"}); !errors.Is(err, ErrLayout) {
		t.Fatalf("sample-count mismatch: err = %v", err)
	}
	if err := a.Add(1, &Summary{Scheme: "y", Samples: []Sample{{}}}); !errors.Is(err, ErrLayout) {
		t.Fatalf("scheme mismatch: err = %v", err)
	}
	if err := a.Add(0, &Summary{Scheme: "x", Samples: []Sample{{}}}); err == nil {
		t.Fatal("duplicate run accepted")
	}
	if _, err := a.Result("k", 3); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("incomplete aggregate: err = %v", err)
	}
}

func TestPanicIsolation(t *testing.T) {
	jobs := testJobs(3, 4, 1)
	jobs[1].Cell = func(ctx context.Context, runIdx int, seed int64) (*Summary, error) {
		if runIdx == 2 {
			panic("kaboom")
		}
		return mathCell(1)(ctx, runIdx, seed)
	}
	aggs, err := Run(context.Background(), jobs, Options{Workers: 4, BaseSeed: 1})
	if err == nil || aggs[1] != nil {
		t.Fatalf("crashing job must fail: aggs[1]=%v err=%v", aggs[1], err)
	}
	if aggs[0] == nil || aggs[2] == nil {
		t.Fatal("healthy jobs must survive a crashing neighbour")
	}
	if want := `job "job-1" run 2`; !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("error does not identify the cell: %v", err)
	}
}

func TestCellErrorFailsOnlyItsJob(t *testing.T) {
	jobs := testJobs(2, 3, 0)
	boom := errors.New("boom")
	jobs[0].Cell = func(context.Context, int, int64) (*Summary, error) { return nil, boom }
	aggs, err := Run(context.Background(), jobs, Options{Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if aggs[0] != nil || aggs[1] == nil {
		t.Fatalf("isolation broken: %v", aggs)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), nil, Options{}); !errors.Is(err, ErrNoJobs) {
		t.Fatalf("empty matrix: err = %v", err)
	}
	cell := mathCell(0)
	cases := []Job{
		{Key: "zero-runs", Runs: 0, Cell: cell},
		{Key: "no-cell", Runs: 1},
	}
	for _, j := range cases {
		if _, err := Run(context.Background(), []Job{j}, Options{}); err == nil {
			t.Fatalf("job %q accepted", j.Key)
		}
	}
	dup := []Job{{Key: "k", Runs: 1, Cell: cell}, {Key: "k", Runs: 1, Cell: cell}}
	if _, err := Run(context.Background(), dup, Options{}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

func TestCancellationStopsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	jobs := []Job{{Key: "slow", Runs: 64, Cell: func(ctx context.Context, _ int, _ int64) (*Summary, error) {
		if started.Add(1) == 3 {
			cancel()
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return &Summary{}, nil
		}
	}}}
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, jobs, Options{Workers: 4})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if n := started.Load(); n > 8 {
		t.Fatalf("cells kept starting after cancel: %d", n)
	}
}

func TestCheckpointResumeEquivalence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	const jobsN, runs = 3, 6

	// Uninterrupted reference, no checkpoint.
	want, err := Run(context.Background(), testJobs(jobsN, runs, 2), Options{Workers: 2, BaseSeed: 11})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel once half the cells completed.
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed atomic.Int32
	interrupted := testJobs(jobsN, runs, 2)
	for i := range interrupted {
		inner := interrupted[i].Cell
		interrupted[i].Cell = func(ctx context.Context, runIdx int, seed int64) (*Summary, error) {
			s, err := inner(ctx, runIdx, seed)
			if completed.Add(1) == jobsN*runs/2 {
				cancel()
			}
			return s, err
		}
	}
	if _, err := Run(ctx, interrupted, Options{Workers: 2, BaseSeed: 11, Checkpoint: cp}); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v", err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	recorded := cp.Len()
	if recorded == 0 || recorded >= jobsN*runs {
		t.Fatalf("checkpoint recorded %d of %d cells; the interrupt did not land mid-sweep", recorded, jobsN*runs)
	}

	// Resume: reopen, rerun, compare bitwise; the resumed cells must come
	// from the file, not recomputation.
	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() != recorded {
		t.Fatalf("reloaded %d records, wrote %d", cp2.Len(), recorded)
	}
	var reran atomic.Int32
	resumed := testJobs(jobsN, runs, 2)
	for i := range resumed {
		inner := resumed[i].Cell
		resumed[i].Cell = func(ctx context.Context, runIdx int, seed int64) (*Summary, error) {
			reran.Add(1)
			return inner(ctx, runIdx, seed)
		}
	}
	got, err := Run(context.Background(), resumed, Options{Workers: 2, BaseSeed: 11, Checkpoint: cp2})
	if err != nil {
		t.Fatal(err)
	}
	aggregatesBitIdentical(t, want, got)
	if int(reran.Load()) != jobsN*runs-recorded {
		t.Fatalf("reran %d cells, want %d", reran.Load(), jobsN*runs-recorded)
	}
}

func TestCheckpointIgnoresSeedMismatchAndTornLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Record("j", 0, 123, &Summary{Final: Sample{PointFrac: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-append: a torn trailing line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"job":"j","run":1,"seed":9,"summ`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() != 1 {
		t.Fatalf("len = %d, want 1 (torn line skipped)", cp2.Len())
	}
	if _, ok := cp2.Lookup("j", 0, 123); !ok {
		t.Fatal("intact record lost")
	}
	if _, ok := cp2.Lookup("j", 0, 999); ok {
		t.Fatal("seed mismatch must miss")
	}
	var nilCP *Checkpoint
	if _, ok := nilCP.Lookup("j", 0, 1); ok || nilCP.Record("j", 0, 1, &Summary{}) != nil || nilCP.Len() != 0 || nilCP.Close() != nil {
		t.Fatal("nil checkpoint must be a strict no-op")
	}
}

func TestCheckpointRoundTripIsBitExact(t *testing.T) {
	// JSON float64 round-tripping must be exact, or resume would diverge
	// from uninterrupted runs.
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := mathCell(3)(context.Background(), 0, 104)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Record("bits", 5, 104, sum); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	got, ok := cp2.Lookup("bits", 5, 104)
	if !ok {
		t.Fatal("record lost")
	}
	if !reflect.DeepEqual(sum, got) {
		t.Fatalf("round trip not bit-exact:\n%+v\nvs\n%+v", sum, got)
	}
}

func TestRunnerObsCounters(t *testing.T) {
	// Counters and the wall-time histogram must reconcile with the matrix.
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(0, nil)
	if _, err := Run(context.Background(), testJobs(2, 3, 1), Options{Workers: 2, BaseSeed: 5, Checkpoint: cp, Obs: o}); err != nil {
		t.Fatal(err)
	}
	if got := o.Counter("runner.cells_completed").Value(); got != 6 {
		t.Fatalf("completed = %d, want 6", got)
	}
	if got := o.Counter("runner.cells_resumed").Value(); got != 0 {
		t.Fatalf("resumed = %d, want 0", got)
	}
	if got := o.Histogram("runner.cell_seconds").Count(); got != 6 {
		t.Fatalf("wall-time observations = %d, want 6", got)
	}
	// Second pass resumes everything.
	o2 := obs.New(0, nil)
	if _, err := Run(context.Background(), testJobs(2, 3, 1), Options{Workers: 2, BaseSeed: 5, Checkpoint: cp, Obs: o2}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if got := o2.Counter("runner.cells_resumed").Value(); got != 6 {
		t.Fatalf("resumed = %d, want 6", got)
	}
	if got := o2.Counter("runner.cells_started").Value(); got != 0 {
		t.Fatalf("started = %d, want 0", got)
	}
}
