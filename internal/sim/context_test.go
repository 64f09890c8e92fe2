package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"photodtn/internal/runner"
	"photodtn/internal/trace"
)

// runCells runs runs cells of f as one orchestrator job seeded baseSeed,
// baseSeed+1, ... — the shape experiments assembles its sweeps from — and
// returns the simulator-side average. The TestRunMany* tests pin the
// repeated-run contract (averaging, cancellation, error propagation) on it;
// the zero-run rejection is pinned by runner's TestRunValidation.
func runCells(ctx context.Context, runs int, baseSeed int64, f RunFunc) (*Average, error) {
	job := runner.Job{Key: "cells", Runs: runs, Cell: Cell(f), Seed: LegacySeeds(baseSeed)}
	aggs, err := runner.Run(ctx, []runner.Job{job}, runner.Options{})
	if err != nil {
		return nil, err
	}
	return AverageOf(aggs[0]), nil
}

// denseConfig builds a run with enough events that the engine crosses
// several cancellation checkpoints.
func denseConfig() Config {
	tr := &trace.Trace{Nodes: 2}
	for i := 0; i < 4096; i++ {
		t := float64(i)
		tr.Contacts = append(tr.Contacts, trace.Contact{Start: t, End: t + 0.5, A: 1, B: 2})
	}
	cfg := baseConfig(tr)
	cfg.Span = 4096
	return cfg
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, denseConfig(), &relayScheme{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextCancelledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := denseConfig()
	s := &cancellingScheme{cancel: cancel, after: 1000}
	_, err := RunContext(ctx, cfg, s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.contacts >= 1000+2*cancelCheckEvery {
		t.Fatalf("engine processed %d contacts after cancellation", s.contacts)
	}
}

// cancellingScheme cancels the run's context after a number of contacts.
type cancellingScheme struct {
	relayScheme
	cancel context.CancelFunc
	after  int
}

func (c *cancellingScheme) OnContact(s *Session) {
	c.contacts++
	if c.contacts == c.after {
		c.cancel()
	}
}

func TestWorldContextNeverNil(t *testing.T) {
	w := newWorld(testMap(), 1, 100, nil)
	if w.Context() == nil {
		t.Fatal("direct-built world returned nil context")
	}
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "v")
	probe := &contextProbe{}
	cfg := baseConfig(&trace.Trace{Nodes: 1})
	cfg.Span = 1
	if _, err := RunContext(ctx, cfg, probe); err != nil {
		t.Fatal(err)
	}
	if probe.got == nil || probe.got.Value(key{}) != "v" {
		t.Fatal("scheme did not observe the run's context via World.Context")
	}
}

type contextProbe struct {
	relayScheme
	got context.Context
}

func (p *contextProbe) Init(w *World) { p.relayScheme.Init(w); p.got = w.Context() }

func TestRunIsRunContextBackground(t *testing.T) {
	cfg := denseConfig()
	want, err := Run(cfg, &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), denseConfig(), &relayScheme{})
	if err != nil {
		t.Fatal(err)
	}
	if want.TransferredPhotos != got.TransferredPhotos || want.Final != got.Final {
		t.Fatal("Run and RunContext(Background) diverge")
	}
}

func TestRunManyContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runCells(ctx, 4, 1, func(seed int64) (Config, Scheme, error) {
		return denseConfig(), &relayScheme{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunManyMatchesAverageResults(t *testing.T) {
	// The orchestrated cells must agree with averaging the same runs
	// executed directly (identical runs make Welford exact, so equality is
	// exact).
	mk := func(seed int64) (Config, Scheme, error) {
		cfg := baseConfig(&trace.Trace{Nodes: 1, Contacts: []trace.Contact{{Start: 10, End: 20, A: 1, B: 0}}})
		cfg.Span = 100
		cfg.SampleInterval = 25
		cfg.Seed = seed
		cfg.Photos = []PhotoEvent{{Time: 5, Node: 1, Photo: usefulPhoto(1, 0)}}
		return cfg, &relayScheme{}, nil
	}
	var results []*Result
	for i := 0; i < 3; i++ {
		cfg, s, _ := mk(int64(9 + i))
		r, err := Run(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	agg := runner.NewAgg()
	for i, r := range results {
		if err := agg.Add(i, Summarize(r)); err != nil {
			t.Fatal(err)
		}
	}
	direct, err := agg.Result("direct", len(results))
	if err != nil {
		t.Fatal(err)
	}
	want := AverageOf(direct)
	got, err := runCells(context.Background(), 3, 9, mk)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(want.Final.PointFrac-got.Final.PointFrac) > 1e-15 ||
		want.Final.Delivered != got.Final.Delivered ||
		want.TransferredPhotos != got.TransferredPhotos {
		t.Fatalf("streaming and slice averaging diverge:\n%+v\nvs\n%+v", want, got)
	}
	if got.FinalVar.Time != 0 {
		t.Fatalf("Time variance must be zero (shared sampling clock), got %v", got.FinalVar.Time)
	}
}
