// Benchmarks regenerating every table and figure of the paper (in Quick
// mode — run cmd/photodtn-experiments for full-scale numbers), the ablation
// studies DESIGN.md calls out, and micro-benchmarks of the hot paths.
package photodtn_test

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"photodtn/internal/core"
	"photodtn/internal/coverage"
	"photodtn/internal/experiments"
	"photodtn/internal/faults"
	"photodtn/internal/geo"
	"photodtn/internal/model"
	"photodtn/internal/obs"
	"photodtn/internal/peer"
	"photodtn/internal/prophet"
	"photodtn/internal/routing"
	"photodtn/internal/selection"
	"photodtn/internal/sim"
	"photodtn/internal/trace"
	"photodtn/internal/wire"
	"photodtn/internal/workload"
)

func benchOpts() experiments.Options {
	return experiments.Options{Runs: 1, BaseSeed: 1, Quick: true}
}

// --- Table and figure benchmarks (one per paper artefact) ---

func BenchmarkTable1Settings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.FormatTable1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig3PrototypeDemo(b *testing.B) {
	var aspect float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDemo(experiments.DefaultDemoConfig())
		if err != nil {
			b.Fatal(err)
		}
		aspect = res.Rows[0].AspectDeg
	}
	b.ReportMetric(aspect, "ours-aspect-deg")
}

func benchFigure(b *testing.B, fn func() (*experiments.Figure, error)) {
	b.Helper()
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = fn()
		if err != nil {
			b.Fatal(err)
		}
	}
	if fig == nil || len(fig.Series) == 0 {
		b.Fatal("no series")
	}
}

func BenchmarkFig5CoverageVsTime(b *testing.B) {
	benchFigure(b, func() (*experiments.Figure, error) { return experiments.Fig5(benchOpts()) })
}

func BenchmarkFig6ContactDuration(b *testing.B) {
	benchFigure(b, func() (*experiments.Figure, error) { return experiments.Fig6(benchOpts()) })
}

func BenchmarkFig7Storage(b *testing.B) {
	for _, kind := range []experiments.TraceKind{experiments.MIT, experiments.Cambridge} {
		b.Run(kind.String(), func(b *testing.B) {
			benchFigure(b, func() (*experiments.Figure, error) { return experiments.Fig7(kind, benchOpts()) })
		})
	}
}

func BenchmarkFig8PhotoRate(b *testing.B) {
	for _, kind := range []experiments.TraceKind{experiments.MIT, experiments.Cambridge} {
		b.Run(kind.String(), func(b *testing.B) {
			benchFigure(b, func() (*experiments.Figure, error) { return experiments.Fig8(kind, benchOpts()) })
		})
	}
}

// --- Ablation benchmarks (DESIGN.md §9) ---

func BenchmarkAblationPthld(b *testing.B) {
	benchFigure(b, func() (*experiments.Figure, error) { return experiments.AblationPthld(benchOpts()) })
}

func BenchmarkAblationTheta(b *testing.B) {
	benchFigure(b, func() (*experiments.Figure, error) { return experiments.AblationTheta(benchOpts()) })
}

func BenchmarkAblationEvaluator(b *testing.B) {
	benchFigure(b, func() (*experiments.Figure, error) { return experiments.AblationEvaluator(benchOpts()) })
}

// --- Micro-benchmarks of the hot paths ---

func benchWorkload(n int, seed int64) (*coverage.Map, model.PhotoList) {
	rng := rand.New(rand.NewSource(seed))
	wl := workload.Default(50, 3600)
	pois := workload.GeneratePoIs(wl, rng)
	m := coverage.NewMap(pois, geo.Radians(30))
	photos := make(model.PhotoList, 0, n)
	wl.PhotosPerHour = float64(n)
	for _, e := range workload.GeneratePhotos(wl, rng) {
		photos = append(photos, e.Photo)
	}
	return m, photos
}

func BenchmarkFootprintGridIndex(b *testing.B) {
	m, photos := benchWorkload(500, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Footprint(photos[i%len(photos)])
	}
}

func BenchmarkFootprintBruteForce(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	wl := workload.Default(50, 3600)
	pois := workload.GeneratePoIs(wl, rng)
	// A cell size spanning the whole region degenerates the grid into a
	// single cell: the brute-force baseline of the ablation.
	m := coverage.NewMap(pois, geo.Radians(30), coverage.WithCellSize(1e9))
	wl.PhotosPerHour = 500
	var photos model.PhotoList
	for _, e := range workload.GeneratePhotos(wl, rng) {
		photos = append(photos, e.Photo)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Footprint(photos[i%len(photos)])
	}
}

func BenchmarkArcSetAddAndGain(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	arcs := make([]geo.Arc, 256)
	for i := range arcs {
		arcs[i] = geo.NewArc(rng.Float64()*geo.TwoPi, rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s geo.ArcSet
		for _, a := range arcs[:16] {
			s.Gain(a)
			s.Add(a)
		}
	}
}

func BenchmarkCoverageStateAddPhotos(b *testing.B) {
	m, photos := benchWorkload(300, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := m.NewState()
		st.AddPhotos(photos)
	}
}

func BenchmarkGreedyFill(b *testing.B) {
	m, photos := benchWorkload(300, 4)
	fpc := coverage.NewFootprintCache(m)
	pool := selection.BuildPool(fpc, photos)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := selection.NewEvaluator(m, selection.DefaultConfig(), nil, nil)
		selection.GreedyFill(ev, pool, 40*(4<<20))
	}
}

func BenchmarkReallocate(b *testing.B) {
	m, photos := benchWorkload(300, 5)
	fpc := coverage.NewFootprintCache(m)
	half := len(photos) / 2
	a := selection.Alloc{Node: 1, P: 0.7, Capacity: 150 * (4 << 20), Photos: photos[:half]}
	bb := selection.Alloc{Node: 2, P: 0.3, Capacity: 150 * (4 << 20), Photos: photos[half:]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selection.Reallocate(fpc, selection.DefaultConfig(), nil, nil, a, bb)
	}
}

func benchParticipants(m *coverage.Map, photos model.PhotoList, n int) []selection.Participant {
	parts := make([]selection.Participant, 0, n)
	per := len(photos) / n
	for i := 0; i < n; i++ {
		parts = append(parts, selection.Participant{
			Node:   model.NodeID(i + 1),
			Photos: photos[i*per : (i+1)*per],
			P:      0.3 + 0.05*float64(i),
		})
	}
	return parts
}

func BenchmarkExpectedCoverageExact(b *testing.B) {
	m, photos := benchWorkload(200, 6)
	parts := benchParticipants(m, photos, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selection.ExactExpectedCoverage(m, nil, parts)
	}
}

func BenchmarkExpectedCoverageMonteCarlo(b *testing.B) {
	m, photos := benchWorkload(200, 6)
	parts := benchParticipants(m, photos, 8)
	cfg := selection.Config{ExactLimit: 0, Samples: 24, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selection.ExpectedCoverage(m, cfg, nil, parts)
	}
}

func BenchmarkProphetExchange(b *testing.B) {
	cfg := prophet.DefaultConfig()
	tabs := make([]*prophet.Table, 20)
	for i := range tabs {
		tabs[i] = prophet.NewTable(model.NodeID(i), cfg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prophet.Exchange(tabs[i%20], tabs[(i+7)%20], float64(i)*60)
	}
}

func BenchmarkTraceGenerateMITLike(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(trace.MITLike(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWirePhotoListCodec(b *testing.B) {
	_, photos := benchWorkload(200, 7)
	md := wire.Metadata{Entries: []wire.MetaEntry{{Node: 1, Photos: photos}}}
	var sink countWriter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.n = 0
		if err := wire.Write(&sink, md); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(sink.n)
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func BenchmarkSimOurSchemeShortRun(b *testing.B) {
	p := experiments.DefaultParams(experiments.MIT)
	p.SpanHours = 30
	for i := 0; i < b.N; i++ {
		cfg, scheme, err := experiments.Build(p, experiments.SchemeOurs, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(cfg, scheme); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTable1 measures a full engine run at the paper's Table I
// settings (MIT-like trace, default storage, workload, gateways) over a
// fixed 120-hour prefix. The world — trace, map, photo workload — is built
// once outside the timer, so the measurement isolates the engine and the
// per-contact selection machinery that dominates it. The two variants pin
// the incremental-selection ablation: "incremental" is the default
// dirty-PoI/cull/session path, "fromscratch" disables it and re-walks every
// candidate residual in full (the pre-incremental behaviour). Selections,
// and therefore results, are identical; only the work per contact differs.
func BenchmarkEngineTable1(b *testing.B) {
	p := experiments.DefaultParams(experiments.MIT)
	p.SpanHours = 120
	cfg, _, err := experiments.Build(p, experiments.SchemeOurs, 1)
	if err != nil {
		b.Fatal(err)
	}
	runWith := func(b *testing.B, core2 func() sim.Scheme) {
		b.ReportAllocs()
		var delivered int
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(cfg, core2())
			if err != nil {
				b.Fatal(err)
			}
			delivered = res.Final.Delivered
		}
		if delivered == 0 {
			b.Fatal("nothing delivered")
		}
	}
	b.Run("incremental", func(b *testing.B) {
		runWith(b, func() sim.Scheme { return core.New(core.DefaultConfig()) })
	})
	b.Run("fromscratch", func(b *testing.B) {
		runWith(b, func() sim.Scheme {
			cc := core.DefaultConfig()
			cc.Selection.DisableIncremental = true
			return core.New(cc)
		})
	})
}

// BenchmarkEngineWithFaults compares the engine's fault-free path with the
// fault layer absent, present-but-zero (must cost ~nothing: the model is
// never built), and active. Watch the off/zero pair: they should be within
// noise of each other.
func BenchmarkEngineWithFaults(b *testing.B) {
	runWith := func(b *testing.B, fc *faults.Config) {
		p := experiments.DefaultParams(experiments.MIT)
		p.SpanHours = 30
		p.Faults = fc
		for i := 0; i < b.N; i++ {
			cfg, scheme, err := experiments.Build(p, experiments.SchemeOurs, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(cfg, scheme); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { runWith(b, nil) })
	b.Run("zero", func(b *testing.B) { runWith(b, &faults.Config{Seed: 1}) })
	b.Run("active", func(b *testing.B) {
		runWith(b, &faults.Config{
			Seed: 1, NodeFailRate: 0.3, MeanDowntimeSec: 6 * 3600, FrameLossProb: 0.1,
		})
	})
}

// BenchmarkObsEngine pins the observability overhead contract on a full
// engine run: "off" is the disabled state (nil observer, no instrumentation
// cost beyond nil checks), "on" pays live atomic counters plus the event
// trace ring. The pair should be within noise of each other.
func BenchmarkObsEngine(b *testing.B) {
	runWith := func(b *testing.B, makeObs func() *obs.Observer) {
		p := experiments.DefaultParams(experiments.MIT)
		p.SpanHours = 30
		for i := 0; i < b.N; i++ {
			p.Obs = makeObs()
			cfg, scheme, err := experiments.Build(p, experiments.SchemeOurs, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(cfg, scheme); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { runWith(b, func() *obs.Observer { return nil }) })
	b.Run("on", func(b *testing.B) {
		runWith(b, func() *obs.Observer { return obs.New(obs.DefaultTraceCap, nil) })
	})
}

func BenchmarkComputeBestPossibleFullTrace(b *testing.B) {
	p := experiments.DefaultParams(experiments.MIT)
	cfg, _, err := experiments.Build(p, experiments.SchemeBestPossible, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.ComputeBestPossible(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// slowConn adds a fixed per-write delay (the frame latency of a slow radio
// link) over a fault-injecting wrapper, passing deadlines through to the
// real pipe end so frame timeouts still work.
type slowConn struct {
	rw    io.ReadWriter
	conn  net.Conn
	delay time.Duration
}

func (c *slowConn) Read(p []byte) (int, error) { return c.rw.Read(p) }
func (c *slowConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.rw.Write(p)
}
func (c *slowConn) SetReadDeadline(t time.Time) error  { return c.conn.SetReadDeadline(t) }
func (c *slowConn) SetWriteDeadline(t time.Time) error { return c.conn.SetWriteDeadline(t) }

// BenchmarkTransferSlowLink measures recovery after a mid-chunk link death
// on a 1 ms/frame slow link: an 8-chunk (256 KiB) photo upload is killed at
// 150 KiB, then a second, clean-but-slow contact completes it. "resume" is
// the cross-contact path — only the missing chunks are re-sent; "discard"
// pins the resume-off baseline that re-sends everything. The
// wasted-B/op metric is receiver bytes that never contributed to a
// delivered photo (the README quotes these numbers).
func BenchmarkTransferSlowLink(b *testing.B) {
	const frameDelay = time.Millisecond
	m := coverage.NewMap([]model.PoI{model.NewPoI(0, geo.Vec{})}, geo.Radians(30))
	photo := model.Photo{
		ID: model.MakePhotoID(3, 0), Owner: 3, Location: geo.FromAngle(0).Scale(60),
		Range: 120, FOV: geo.Radians(60), Orientation: geo.Radians(180), Size: 4 << 20,
	}
	contact := func(h, cc *peer.Peer, cut int64) {
		ca, cb := net.Pipe()
		var rw io.ReadWriter = ca
		if cut > 0 {
			rw = faults.NewByteKillTransport(ca, cut)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = h.ContactConn(&slowConn{rw: rw, conn: ca, delay: frameDelay}, true)
			_ = ca.Close()
		}()
		go func() {
			defer wg.Done()
			_ = cc.ContactConn(cb, false)
			_ = cb.Close()
		}()
		wg.Wait()
	}
	run := func(b *testing.B, resume bool) {
		b.ReportAllocs()
		var wasted, sent int64
		for i := 0; i < b.N; i++ {
			cfg := peer.TransferConfig{ChunkSize: 32 << 10, Resume: resume}
			clock := func() float64 { return 1000 }
			cc := peer.New(model.CommandCenter, m, 0,
				peer.WithSeed(1), peer.WithClock(clock), peer.WithTransfer(cfg))
			h := peer.New(3, m, 64<<20,
				peer.WithSeed(2), peer.WithClock(clock), peer.WithTransfer(cfg),
				peer.WithPayloadBytes(256<<10))
			if err := h.AddPhoto(photo); err != nil {
				b.Fatal(err)
			}
			contact(h, cc, 150<<10) // dies mid-chunk
			contact(h, cc, 0)       // clean recovery contact
			if !cc.Photos().Contains(photo.ID) {
				b.Fatal("photo not delivered")
			}
			wasted += cc.TransferStats().WastedBytes
			sent += h.TransferStats().ChunksSent
		}
		b.ReportMetric(float64(wasted)/float64(b.N), "wasted-B/op")
		b.ReportMetric(float64(sent)/float64(b.N), "chunks/op")
	}
	b.Run("resume", func(b *testing.B) { run(b, true) })
	b.Run("discard", func(b *testing.B) { run(b, false) })
}
