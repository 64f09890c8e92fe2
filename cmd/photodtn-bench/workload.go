package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"photodtn/internal/obs"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names with their direction and bound (a test keeps the two in
// step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or of a live node sees.
// Every workload reports all of them from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"contacts_per_s", "1/s"},
	{"photos_delivered_per_s", "1/s"},
	{"contact_p50_ms", "ms"},
	{"contact_p99_ms", "ms"},
	{"alloc_kb_per_contact", "KiB"},
	{"wire_kb_per_photo", "KiB"},
	{"cc_point_frac", "frac"},
	{"cc_aspect_deg", "deg"},
}

// perLayer are the metrics of single layers, reported by a traced run.
// Times are shares of the measured units' wall time, so a layer a workload
// does not exercise reads 0 rather than a made-up duration.
var perLayer = []metricDef{
	{"core.on_photo.calls", "count"},
	{"core.on_photo.busy_frac", "frac"},
	{"core.on_photo.alloc_kb_per_call", "KiB"},
	{"core.on_contact_peer.calls", "count"},
	{"core.on_contact_peer.busy_frac", "frac"},
	{"core.on_contact_peer.alloc_kb_per_call", "KiB"},
	{"core.on_contact_gateway.calls", "count"},
	{"core.on_contact_gateway.busy_frac", "frac"},
	{"sim.engine.self_frac", "frac"},
	{"sim.engine.alloc_mb_per_run", "MB"},
	{"selection.gain_evals_per_contact", "count"},
	{"selection.rounds_per_contact", "count"},
	{"selection.evaluators_per_contact", "count"},
	{"coverage.fp_cache_hit_ratio", "frac"},
	{"metadata.invalidations_per_contact", "count"},
	{"peer.add_photo.calls", "count"},
	{"peer.add_photo.busy_frac", "frac"},
	{"peer.add_photo.rejected_frac", "frac"},
	{"peer.self_frac", "frac"},
	{"wire.kb_per_contact", "KiB"},
	{"wire.writes_per_contact", "count"},
	{"wire.read_wait_frac", "frac"},
	{"journal.fsyncs_per_photo", "count"},
	{"journal.kb_per_photo", "KiB"},
	{"journal.fsync_frac", "frac"},
	{"journal.write_frac", "frac"},
	{"journal.snapshots", "count"},
	{"journal.commits", "count"},
	{"transfer.chunks_sent_per_contact", "count"},
	{"transfer.chunks_received_per_contact", "count"},
	{"transfer.wasted_kb", "KiB"},
	{"transfer.useful_byte_frac", "frac"},
	{"peer.commit_conflicts", "count"},
	{"peer.admission_rejected", "count"},
	{"peer.contact_aborts", "count"},
	{"guard.violations", "count"},
	{"guard.shed_contacts", "count"},
	{"process.cpu_busy_frac", "frac"},
	{"process.gc_cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.span_coverage_frac", "frac"},
}

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	stateDir string // parent of the live peers' journal directories
	small    bool   // tiny inputs, for the package's own tests
}

// unitSeed derives the workload seed of unit i of a run: every unit of
// every run sees its own inputs, and the same run seed repeats them.
func unitSeed(runSeed int64, i int) int64 { return runSeed*1000 + int64(i) }

// workload is one input set of the benchmark. A run sets up and measures
// units — one simulation, one trace replay, one ingest batch — until its
// time is up.
type workload struct {
	name    string
	newUnit func(rc *runConfig, seed int64, idx int32, tc *traceCtx) (unit, error)
}

// unit is a set-up unit of work: run measures it, close releases what
// set-up built.
type unit interface {
	run() (unitResult, error)
	close() error
}

// traceCtx is what a traced unit records into. A nil *traceCtx is the
// untraced state.
type traceCtx struct {
	tr  *tracer
	obs *obs.Observer
}

func (t *traceCtx) tracer() *tracer {
	if t == nil {
		return nil
	}
	return t.tr
}

func (t *traceCtx) observer() *obs.Observer {
	if t == nil {
		return nil
	}
	return t.obs
}

// unitResult is what one unit reports. Counts in tally are filled where a
// layer exists; tracing only adds span-derived numbers.
type unitResult struct {
	exec      time.Duration
	contacts  int64 // contacts attempted
	failed    int64 // contacts (live) or runs (sim) that failed
	runs      int64 // simulation runs (sim) — the attempt unit there
	delivered int64
	latMs     []float64
	alloc     uint64 // heap bytes allocated while the unit ran
	wireBytes int64
	point     float64
	aspectDeg float64
	digest    string
	checkErr  error // a failed correctness check
	tally     tally
}

// attempts is what the unit tried: its simulation run, or its contacts.
func (u unitResult) attempts() int64 {
	if u.runs > 0 {
		return u.runs
	}
	return u.contacts
}

// tally holds layer counts, summed over units.
type tally struct {
	// callAlloc is the heap bytes allocated inside each scheme layer; for
	// sim.run, by the engine itself (traced sim).
	callAlloc   [numLayers]uint64
	wireWrites  int64
	captures    int64
	rejected    int64
	jBytes      int64
	jFsyncs     int64
	jRenames    int64
	chunksSent  int64
	chunksRecv  int64
	wastedBytes int64
	usefulBytes int64
	commits     int64
	violations  int64
	shed        int64
	cpu         time.Duration
	gcCPU       float64
	totalCPU    float64
}

func (t *tally) add(o tally) {
	for i := range t.callAlloc {
		t.callAlloc[i] += o.callAlloc[i]
	}
	t.wireWrites += o.wireWrites
	t.captures += o.captures
	t.rejected += o.rejected
	t.jBytes += o.jBytes
	t.jFsyncs += o.jFsyncs
	t.jRenames += o.jRenames
	t.chunksSent += o.chunksSent
	t.chunksRecv += o.chunksRecv
	t.wastedBytes += o.wastedBytes
	t.usefulBytes += o.usefulBytes
	t.commits += o.commits
	t.violations += o.violations
	t.shed += o.shed
	t.cpu += o.cpu
	t.gcCPU += o.gcCPU
	t.totalCPU += o.totalCPU
}

// metric is one reported value with the sample it summarises.
type metric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples"`
	Percentile float64 `json:"percentile,omitempty"`
}

// result is the outcome of one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Units     int               `json:"units"`
	Metrics   map[string]metric `json:"metrics"`
	Digests   []string          `json:"digests,omitempty"`
	Errors    []string          `json:"errors,omitempty"`
	Env       *environment      `json:"env,omitempty"`

	spans []span
}

// Before it measures, a run performs and discards set-ups: at least
// minSetups, and more while they take less than setupBudget in all (up to
// maxSetups), so that setup_s is a median of several even where units are
// long, and of many where set-up takes milliseconds.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = time.Second
)

// minContacts is how many contact latencies an untraced run collects at
// least, so that p99 has ten samples beyond it.
const minContacts = 1000

// cpuSampler reads the runtime's CPU accounting.
type cpuSampler struct{ s [2]metrics.Sample }

func newCPUSampler() *cpuSampler {
	c := &cpuSampler{}
	c.s[0].Name = "/cpu/classes/gc/total:cpu-seconds"
	c.s[1].Name = "/cpu/classes/total:cpu-seconds"
	return c
}

// read returns GC CPU seconds, total available CPU seconds, and the
// process's own user+system CPU time.
func (c *cpuSampler) read() (gc, total float64, proc time.Duration) {
	metrics.Read(c.s[:])
	return c.s[0].Value.Float64(), c.s[1].Value.Float64(), cpuTime()
}

// allocReader reads the heap's cumulative allocated bytes. Each reader owns
// its sample, so readers on different goroutines do not share state; the
// zero value is ready to use.
type allocReader struct{ s [1]metrics.Sample }

func (r *allocReader) read() uint64 {
	r.s[0].Name = "/gc/heap/allocs:bytes"
	metrics.Read(r.s[:])
	return r.s[0].Value.Uint64()
}

// measure runs one workload for rc.seconds and reports its metrics.
func measure(w *workload, rc runConfig) (*result, error) {
	res := &result{Workload: w.name, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace}
	var setups []float64
	for i, spent := 0, time.Duration(0); i < minSetups || (i < maxSetups && spent < setupBudget); i++ {
		t0 := time.Now()
		u, err := w.newUnit(&rc, unitSeed(rc.seed, i), int32(i), nil)
		if err != nil {
			return nil, fmt.Errorf("%s: set up: %w", w.name, err)
		}
		setup := time.Since(t0)
		spent += setup
		setups = append(setups, setup.Seconds())
		if err := u.close(); err != nil {
			return nil, fmt.Errorf("%s: tear down: %w", w.name, err)
		}
	}
	budget := time.Duration(rc.seconds * float64(time.Second))
	var (
		units       []unitResult
		traced      []unitResult
		tc          *traceCtx
		contactsSum int64
	)
	if rc.trace {
		tc = &traceCtx{tr: newTracer(), obs: &obs.Observer{Metrics: obs.NewRegistry()}}
	}
	cpu := newCPUSampler()
	start := time.Now()
	for i := 0; ; i++ {
		seed := unitSeed(rc.seed, i)
		// A traced run pairs every unit with a traced twin on the same
		// inputs: the twin's digest must match, and the difference of their
		// times is the tracing overhead. The pair's order alternates so the
		// process warming up does not favour either side.
		order := []*traceCtx{nil}
		if rc.trace {
			order = []*traceCtx{nil, tc}
			if i%2 == 1 {
				order = []*traceCtx{tc, nil}
			}
		}
		var plain, twin unitResult
		for _, t := range order {
			r, setup, err := runUnit(w, &rc, seed, int32(i), t, cpu)
			if err != nil {
				return nil, err
			}
			if t == nil {
				plain = r
				setups = append(setups, setup.Seconds())
			} else {
				twin = r
			}
		}
		units = append(units, plain)
		contactsSum += plain.contacts
		if rc.trace {
			if twin.digest != plain.digest {
				twin.checkErr = fmt.Errorf("traced rerun: digest %s, untraced %s", twin.digest, plain.digest)
			}
			traced = append(traced, twin)
		}
		elapsed := time.Since(start)
		enough := rc.trace || rc.small || contactsSum >= minContacts
		if enough && elapsed+elapsed/time.Duration(i+1) > budget {
			break
		}
	}

	for i, u := range append(append([]unitResult(nil), units...), traced...) {
		res.Attempted += u.attempts()
		res.Failed += u.failed
		if u.checkErr != nil {
			res.Failed += u.attempts() - u.failed
			res.Errors = append(res.Errors, fmt.Sprintf("unit %d: %v", i%len(units), u.checkErr))
		}
	}
	for i, u := range units {
		if u.digest == "" {
			continue
		}
		res.Digests = append(res.Digests, u.digest)
		if want, ok := golden(w.name, rc, i); ok && want != u.digest && u.checkErr == nil {
			res.Failed += u.attempts() - u.failed
			res.Errors = append(res.Errors, fmt.Sprintf("unit %d: digest %s, golden %s", i, u.digest, want))
		}
	}
	res.Correct = res.Failed == 0
	res.Units = len(units)
	if rc.trace {
		res.spans = tc.tr.snapshot()
		res.Metrics = layerMetrics(units, traced, res.spans, tc.obs)
	} else {
		res.Metrics = endToEndMetrics(units, setups)
	}
	return res, nil
}

// runUnit sets up, runs and tears down one unit, timing the set-up.
func runUnit(w *workload, rc *runConfig, seed int64, idx int32, tc *traceCtx, cpu *cpuSampler) (unitResult, time.Duration, error) {
	t0 := time.Now()
	u, err := w.newUnit(rc, seed, idx, tc)
	if err != nil {
		return unitResult{}, 0, fmt.Errorf("%s: set up unit %d: %w", w.name, idx, err)
	}
	setup := time.Since(t0)
	// Collect set-up's garbage now, so that the measured unit does not pay
	// for it at whatever point the collector happens to run.
	runtime.GC()
	gc0, tot0, cpu0 := cpu.read()
	r, err := u.run()
	gc1, tot1, cpu1 := cpu.read()
	if cerr := u.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return unitResult{}, 0, fmt.Errorf("%s: unit %d: %w", w.name, idx, err)
	}
	r.tally.cpu = cpu1 - cpu0
	r.tally.gcCPU = gc1 - gc0
	r.tally.totalCPU = tot1 - tot0
	return r, setup, nil
}

// endToEndMetrics summarises untraced units: medians of per-unit rates,
// percentiles of the pooled contact latencies, the median set-up time.
func endToEndMetrics(units []unitResult, setups []float64) map[string]metric {
	n := len(units)
	per := func(f func(u unitResult) float64) []float64 {
		xs := make([]float64, n)
		for i, u := range units {
			xs[i] = f(u)
		}
		return xs
	}
	var lat []float64
	for _, u := range units {
		lat = append(lat, u.latMs...)
	}
	tail := min(0.99, tailLevel(len(lat)))
	return map[string]metric{
		"setup_s":    {Value: median(setups), Unit: "s", Samples: len(setups)},
		"max_rss_mb": {Value: float64(maxRSSBytes()) / (1 << 20), Unit: "MB", Samples: 1},
		"contacts_per_s": {Value: median(per(func(u unitResult) float64 {
			return ratio(float64(u.contacts), u.exec.Seconds())
		})), Unit: "1/s", Samples: n},
		"photos_delivered_per_s": {Value: median(per(func(u unitResult) float64 {
			return ratio(float64(u.delivered), u.exec.Seconds())
		})), Unit: "1/s", Samples: n},
		"contact_p50_ms": {Value: percentile(lat, 0.5), Unit: "ms", Samples: len(lat), Percentile: 50},
		"contact_p99_ms": {Value: percentile(lat, tail), Unit: "ms", Samples: len(lat), Percentile: tail * 100},
		"alloc_kb_per_contact": {Value: median(per(func(u unitResult) float64 {
			return ratio(float64(u.alloc), float64(u.contacts)) / 1024
		})), Unit: "KiB", Samples: n},
		"wire_kb_per_photo": {Value: median(per(func(u unitResult) float64 {
			return ratio(float64(u.wireBytes), float64(u.delivered)) / 1024
		})), Unit: "KiB", Samples: n},
		"cc_point_frac": {Value: median(per(func(u unitResult) float64 { return u.point })), Unit: "frac", Samples: n},
		"cc_aspect_deg": {Value: median(per(func(u unitResult) float64 { return u.aspectDeg })), Unit: "deg", Samples: n},
	}
}

// layerMetrics summarises the traced twins: span busy and self time as
// shares of their wall time, counts per unit or per contact, and the
// observer's counters.
func layerMetrics(untraced, traced []unitResult, spans []span, o *obs.Observer) map[string]metric {
	var (
		t                            tally
		exec, plainExec              time.Duration
		contacts, delivered, wire, n float64
	)
	for _, u := range traced {
		t.add(u.tally)
		exec += u.exec
		contacts += float64(u.contacts)
		delivered += float64(u.delivered)
		wire += float64(u.wireBytes)
		n++
	}
	for _, u := range untraced {
		plainExec += u.exec
	}
	lt := aggregate(spans)
	sec := exec.Seconds()
	frac := func(l layer) float64 { return ratio(lt.busy[l].Seconds(), sec) }
	counter := func(name string) float64 { return float64(o.Counter(name).Value()) }
	perCallKB := func(l layer) float64 { return ratio(float64(t.callAlloc[l]), float64(lt.calls[l])) / 1024 }
	rootBusy := lt.busy[lSimRun] + lt.busy[lLiveUnit]
	rootCovered := rootBusy - lt.self[lSimRun] - lt.self[lLiveUnit]
	v := map[string]float64{
		"core.on_photo.calls":                    ratio(float64(lt.calls[lOnPhoto]), n),
		"core.on_photo.busy_frac":                frac(lOnPhoto),
		"core.on_photo.alloc_kb_per_call":        perCallKB(lOnPhoto),
		"core.on_contact_peer.calls":             ratio(float64(lt.calls[lOnContactPeer]), n),
		"core.on_contact_peer.busy_frac":         frac(lOnContactPeer),
		"core.on_contact_peer.alloc_kb_per_call": perCallKB(lOnContactPeer),
		"core.on_contact_gateway.calls":          ratio(float64(lt.calls[lOnContactGateway]), n),
		"core.on_contact_gateway.busy_frac":      frac(lOnContactGateway),
		"sim.engine.self_frac":                   ratio(lt.self[lSimRun].Seconds(), sec),
		"sim.engine.alloc_mb_per_run":            ratio(float64(t.callAlloc[lSimRun]), n) / (1 << 20),
		"selection.gain_evals_per_contact":       ratio(counter("selection.gain_evals"), contacts),
		"selection.rounds_per_contact":           ratio(counter("selection.rounds"), contacts),
		"selection.evaluators_per_contact":       ratio(counter("selection.evaluators"), contacts),
		"coverage.fp_cache_hit_ratio": ratio(counter("coverage.fp_cache_hits"),
			counter("coverage.fp_cache_hits")+counter("coverage.fp_cache_misses")),
		"metadata.invalidations_per_contact":   ratio(counter("metadata.invalidations"), contacts),
		"peer.add_photo.calls":                 ratio(float64(t.captures), n),
		"peer.add_photo.busy_frac":             frac(lAddPhoto),
		"peer.add_photo.rejected_frac":         ratio(float64(t.rejected), float64(t.captures)),
		"peer.self_frac":                       ratio((lt.self[lPeerDial] + lt.self[lPeerServe]).Seconds(), sec),
		"wire.kb_per_contact":                  ratio(wire, contacts) / 1024,
		"wire.writes_per_contact":              ratio(float64(t.wireWrites), contacts),
		"wire.read_wait_frac":                  frac(lReadWait),
		"journal.fsyncs_per_photo":             ratio(float64(t.jFsyncs), delivered),
		"journal.kb_per_photo":                 ratio(float64(t.jBytes), delivered) / 1024,
		"journal.fsync_frac":                   frac(lJournalFsync),
		"journal.write_frac":                   frac(lJournalWrite),
		"journal.snapshots":                    ratio(float64(t.jRenames), n),
		"journal.commits":                      ratio(float64(t.commits), n),
		"transfer.chunks_sent_per_contact":     ratio(float64(t.chunksSent), contacts),
		"transfer.chunks_received_per_contact": ratio(float64(t.chunksRecv), contacts),
		"transfer.wasted_kb":                   ratio(float64(t.wastedBytes), n) / 1024,
		"transfer.useful_byte_frac":            ratio(float64(t.usefulBytes), wire),
		"peer.commit_conflicts":                ratio(counter("peer.commit_conflicts"), n),
		"peer.admission_rejected":              ratio(counter("peer.admission_rejected"), n),
		"peer.contact_aborts":                  ratio(counter("peer.contact_aborts"), n),
		"guard.violations":                     ratio(float64(t.violations), n),
		"guard.shed_contacts":                  ratio(float64(t.shed), n),
		"process.cpu_busy_frac":                ratio(t.cpu.Seconds(), sec*float64(runtime.GOMAXPROCS(0))),
		"process.gc_cpu_frac":                  ratio(t.gcCPU, t.totalCPU),
		"trace.overhead_frac":                  ratio(sec, plainExec.Seconds()) - 1,
		"trace.span_coverage_frac":             ratio(rootCovered.Seconds(), rootBusy.Seconds()),
	}
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = metric{Value: v[d.name], Unit: d.unit, Samples: len(traced)}
	}
	return out
}
