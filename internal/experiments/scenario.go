// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV-B prototype demo, §V simulations) from this repository's
// implementations. Each experiment has a builder returning structured
// results plus text formatting used by cmd/photodtn-experiments and
// EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"

	"photodtn/internal/core"
	"photodtn/internal/coverage"
	"photodtn/internal/faults"
	"photodtn/internal/geo"
	"photodtn/internal/model"
	"photodtn/internal/obs"
	"photodtn/internal/routing"
	"photodtn/internal/runner"
	"photodtn/internal/sim"
	"photodtn/internal/trace"
	"photodtn/internal/workload"
)

// TraceKind selects the contact trace family of §V-A.
type TraceKind int

// Trace kinds.
const (
	// MIT is the MIT-Reality-like trace: 97 nodes over 300 hours.
	MIT TraceKind = iota + 1
	// Cambridge is the Cambridge06-like trace: 54 nodes over 200 hours.
	Cambridge
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case MIT:
		return "MIT"
	case Cambridge:
		return "Cambridge06"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

const hour = 3600.0

// Scheme names accepted by NewScheme.
const (
	SchemeOurs          = "OurScheme"
	SchemeNoMetadata    = "NoMetadata"
	SchemeBestPossible  = "BestPossible"
	SchemeSprayAndWait  = "Spray&Wait"
	SchemeModifiedSpray = "ModifiedSpray"
	SchemePhotoNet      = "PhotoNet"
	SchemeEpidemic      = "Epidemic"
	SchemeProphet       = "PROPHET"
)

// AllSchemes is the scheme set of Fig. 5.
var AllSchemes = []string{
	SchemeBestPossible, SchemeOurs, SchemeNoMetadata,
	SchemeModifiedSpray, SchemeSprayAndWait,
}

// NewScheme instantiates a scheme by name.
func NewScheme(name string) (sim.Scheme, error) {
	switch name {
	case SchemeOurs:
		return core.New(core.DefaultConfig()), nil
	case SchemeNoMetadata:
		cfg := core.DefaultConfig()
		cfg.DisableMetadata = true
		return core.New(cfg), nil
	case SchemeBestPossible:
		return routing.NewBestPossible(), nil
	case SchemeSprayAndWait:
		return routing.NewSprayAndWait(), nil
	case SchemeModifiedSpray:
		return routing.NewModifiedSpray(), nil
	case SchemePhotoNet:
		return routing.NewPhotoNet(), nil
	case SchemeEpidemic:
		return routing.NewEpidemic(), nil
	case SchemeProphet:
		return routing.NewProphetRouting(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown scheme %q", name)
	}
}

// Params describes one simulation scenario in the paper's units.
type Params struct {
	// Trace selects the contact trace family.
	Trace TraceKind
	// StorageGB is each node's storage in gigabytes (0.6 default).
	StorageGB float64
	// PhotosPerHour is the aggregate generation rate (250 default).
	PhotosPerHour float64
	// BandwidthMBs is the radio bandwidth in MB/s; 0 disables budget limits
	// (the paper's default assumption outside Fig. 6).
	BandwidthMBs float64
	// ContactCapSec caps contact durations (Fig. 6); 0 leaves them as-is.
	ContactCapSec float64
	// SpanHours overrides the simulated span; 0 uses the trace's full span
	// (300 h MIT, 200 h Cambridge).
	SpanHours float64
	// SampleHours is the metrics sampling period (0 = final sample only).
	SampleHours float64
	// Theta is the effective angle θ (30° default).
	Theta float64
	// GatewayFrac is the fraction of participants with command-center
	// connectivity (2% default).
	GatewayFrac float64
	// CustomTrace, when set, overrides the Trace kind with a caller-supplied
	// contact trace (e.g. loaded from a file or generated by the mobility
	// package).
	CustomTrace *trace.Trace
	// Faults optionally enables the deterministic fault model (crashes,
	// contact drops, frame loss, gateway outages, clock skew). Nil or a
	// zero-valued config leaves results bit-identical to a fault-free run.
	Faults *faults.Config
	// Obs optionally attaches an observer (counters + event trace) to every
	// run built from these params. Nil — the default — is a strict no-op:
	// results are bit-identical to an unobserved run. Counters are atomic and
	// the trace ring is locked, so one observer may be shared across the
	// runner's parallel workers, but per-run event reconciliation only
	// makes sense with runs=1.
	Obs *obs.Observer
}

// DefaultParams returns the Table I scenario for the given trace.
func DefaultParams(kind TraceKind) Params {
	return Params{
		Trace:         kind,
		StorageGB:     0.6,
		PhotosPerHour: 250,
		Theta:         geo.Radians(30),
		GatewayFrac:   0.02,
	}
}

// traceCache shares the immutable generated traces across runs and schemes.
var traceCache sync.Map // TraceKind → *trace.Trace

// traceSeed fixes the trace realisation: the paper uses one real trace for
// all runs, randomising only the workload; we mirror that.
const traceSeed = 424242

// BaseTrace returns the shared contact trace for the kind.
func BaseTrace(kind TraceKind) (*trace.Trace, error) {
	if tr, ok := traceCache.Load(kind); ok {
		return tr.(*trace.Trace), nil
	}
	var cfg trace.SynthConfig
	switch kind {
	case MIT:
		cfg = trace.MITLike(traceSeed)
	case Cambridge:
		cfg = trace.CambridgeLike(traceSeed)
	default:
		return nil, fmt.Errorf("experiments: unknown trace kind %v", kind)
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: generate %v trace: %w", kind, err)
	}
	actual, _ := traceCache.LoadOrStore(kind, tr)
	return actual.(*trace.Trace), nil
}

// Build assembles the simulation config and scheme for one run. Everything
// random (PoIs, photos, gateways, Monte Carlo draws) derives from seed;
// the trace realisation is shared.
func Build(p Params, schemeName string, seed int64) (sim.Config, sim.Scheme, error) {
	scheme, err := NewScheme(schemeName)
	if err != nil {
		return sim.Config{}, nil, err
	}
	tr := p.CustomTrace
	if tr == nil {
		var err error
		tr, err = BaseTrace(p.Trace)
		if err != nil {
			return sim.Config{}, nil, err
		}
	}
	if p.ContactCapSec > 0 {
		tr = tr.CapDurations(p.ContactCapSec)
	}
	span := tr.Duration()
	if p.SpanHours > 0 {
		span = p.SpanHours * hour
	}

	if p.StorageGB == 0 {
		p.StorageGB = 0.6
	}
	if p.PhotosPerHour == 0 {
		p.PhotosPerHour = 250
	}
	if p.Theta == 0 {
		p.Theta = geo.Radians(30)
	}
	if p.GatewayFrac == 0 {
		p.GatewayFrac = 0.02
	}

	rng := rand.New(rand.NewSource(seed))
	wl := workload.Default(tr.Nodes, span)
	wl.PhotosPerHour = p.PhotosPerHour
	if err := wl.Validate(); err != nil {
		return sim.Config{}, nil, err
	}
	pois := workload.GeneratePoIs(wl, rng)
	photos := workload.GeneratePhotos(wl, rng)
	gateways := pickActiveGateways(tr, p.GatewayFrac, rng)

	cfg := sim.Config{
		Trace:           tr,
		Map:             coverage.NewMap(pois, p.Theta),
		Photos:          photos,
		StorageBytes:    int64(p.StorageGB * float64(int64(1)<<30)),
		Bandwidth:       p.BandwidthMBs * float64(int64(1)<<20),
		Gateways:        gateways,
		GatewayInterval: 3 * hour,
		GatewayDuration: 10 * 60,
		SampleInterval:  p.SampleHours * hour,
		Span:            span,
		Seed:            seed,
		Faults:          p.Faults,
		Obs:             p.Obs,
	}
	return cfg, scheme, nil
}

// pickActiveGateways selects ~frac of the participants as gateways from the
// most-connected quartile of the trace. The paper's gateways are rescuers
// with satellite radios and dedicated data mules — deliberately deployed,
// well-connected carriers, not uniformly random devices (a uniformly random
// pick in a heavy-tailed contact distribution frequently lands on an
// isolated node, which no routing scheme can do anything with).
func pickActiveGateways(tr *trace.Trace, frac float64, rng *rand.Rand) []model.NodeID {
	count := int(math.Round(float64(tr.Nodes) * frac))
	if count < 1 {
		count = 1
	}
	stats := trace.Analyze(tr)
	nodes := make([]model.NodeID, 0, tr.Nodes)
	for n := 1; n <= tr.Nodes; n++ {
		nodes = append(nodes, model.NodeID(n))
	}
	sort.Slice(nodes, func(i, j int) bool {
		ci, cj := stats.ContactCount[nodes[i]], stats.ContactCount[nodes[j]]
		if ci != cj {
			return ci > cj
		}
		return nodes[i] < nodes[j]
	})
	quartile := tr.Nodes / 4
	if quartile < count {
		quartile = count
	}
	pool := nodes[:quartile]
	perm := rng.Perm(len(pool))
	out := make([]model.NodeID, 0, count)
	for _, idx := range perm[:count] {
		out = append(out, pool[idx])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// jobKey derives a checkpoint-stable orchestrator key for one (scenario,
// scheme) aggregation group: the scheme name plus an FNV-1a digest of every
// result-affecting parameter. Two jobs share a key exactly when their cells
// would compute identical results, which is what lets one checkpoint file
// deduplicate work across figures (Fig. 5's OurScheme curve and the extended
// comparison's, say). Obs is excluded on purpose — observation never changes
// results.
func (p Params) jobKey(scheme string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%g|%g|%g|%g|%g|%g|%g|%g",
		p.Trace, p.StorageGB, p.PhotosPerHour, p.BandwidthMBs, p.ContactCapSec,
		p.SpanHours, p.SampleHours, p.Theta, p.GatewayFrac)
	if p.CustomTrace != nil {
		fmt.Fprintf(h, "|custom:%d:%d:%g", p.CustomTrace.Nodes,
			len(p.CustomTrace.Contacts), p.CustomTrace.Duration())
	}
	if p.Faults != nil {
		fmt.Fprintf(h, "|faults:%+v", *p.Faults)
	}
	return fmt.Sprintf("%s@%016x", scheme, h.Sum64())
}

// schemeCell builds the orchestrator cell for one (scenario, scheme) pair.
// BestPossible takes the analytic fast path (routing.ComputeBestPossible),
// which is equivalent to simulating the unconstrained epidemic but orders of
// magnitude faster at full scale; every other scheme runs the engine under
// the cell's context.
func schemeCell(p Params, schemeName string) runner.CellFunc {
	if schemeName == SchemeBestPossible {
		return func(_ context.Context, runIdx int, seed int64) (*runner.Summary, error) {
			cfg, _, err := Build(p, schemeName, seed)
			if err != nil {
				return nil, fmt.Errorf("run %d: %w", runIdx, err)
			}
			res, err := routing.ComputeBestPossible(cfg)
			if err != nil {
				return nil, fmt.Errorf("run %d: %w", runIdx, err)
			}
			return sim.Summarize(res), nil
		}
	}
	return sim.Cell(func(seed int64) (sim.Config, sim.Scheme, error) {
		return Build(p, schemeName, seed)
	})
}

// schemeJob assembles the orchestrator job for one (scenario, scheme) pair —
// the unit the figure harnesses compose into whole-sweep matrices. Seeds
// stay the documented baseSeed, baseSeed+1, ... family so committed reports
// reproduce exactly.
func schemeJob(p Params, schemeName string, runs int, baseSeed int64) runner.Job {
	return runner.Job{
		Key:  p.jobKey(schemeName),
		Runs: runs,
		Cell: schemeCell(p, schemeName),
		Seed: sim.LegacySeeds(baseSeed),
	}
}

// RunAveraged executes runs independent simulations of one scheme and
// averages the results. It is RunAveragedContext with background context and
// default orchestration.
func RunAveraged(p Params, schemeName string, runs int, baseSeed int64) (*sim.Average, error) {
	return RunAveragedContext(context.Background(), p, schemeName, Options{Runs: runs, BaseSeed: baseSeed})
}

// RunAveragedContext executes one scheme's averaged runs through the
// orchestrator: bounded workers, streaming aggregation (memory stays
// O(workers) however many runs are requested), optional checkpointing, and
// cooperative cancellation via ctx.
func RunAveragedContext(ctx context.Context, p Params, schemeName string, opts Options) (*sim.Average, error) {
	opts = opts.normalized()
	if p.Obs == nil {
		p.Obs = opts.Obs
	}
	aggs, err := runner.Run(ctx, []runner.Job{schemeJob(p, schemeName, opts.Runs, opts.BaseSeed)}, opts.runnerOptions())
	if err != nil {
		return nil, err
	}
	return sim.AverageOf(aggs[0]), nil
}
