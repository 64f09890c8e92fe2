GO ?= go

.PHONY: tier1 fmt build vet test race race-repeat chaos bench bench-runner bench-short bench-all bench-diff fuzz fuzz-short trace-demo

# tier1 is the merge gate: everything must pass before a change lands.
tier1: fmt build vet test race bench-short fuzz-short bench-diff

# fmt fails when any Go file in the repository is not gofmt-formatted. It
# only lists files; it never rewrites them.
fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race is the unified race pass over every package — the live peer and its
# journal, the concurrent-serving soak, the adversarial sweep, the fault
# injectors, the orchestrator, and the observability-instrumented layers
# included.
race:
	$(GO) test -race ./...

# race-repeat reruns the concurrency-heavy packages under the race detector
# with -count=2: the live peer (commit races, the pipelined chunk-ack
# reader, admission), the wire codec and reassembly store, the guard's
# per-peer accounting, and selection session reuse get a second schedule in
# which to trip the detector.
race-repeat:
	$(GO) test -race -count=2 ./internal/peer/ ./internal/peer/session/ ./internal/wire/ \
		./internal/transfer/ ./internal/guard/ ./internal/selection/ ./internal/coverage/

# chaos is the crash-recovery harness: it sweeps a kill across every
# mutating disk operation of a durable peer's write sequence (clean and
# torn-write kills), restarts from disk each time, and requires bit-exact
# convergence with an uninterrupted reference run.
chaos:
	$(GO) test -race -count=1 -v ./internal/peer/ ./internal/journal/ ./internal/faults/

# bench-runner regenerates the committed orchestrator baseline
# BENCH_runner.json (worker-pool scaling, aggregation, seed derivation).
bench-runner:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=200ms ./internal/runner/ \
		| $(GO) run ./cmd/benchjson -o BENCH_runner.json
	@echo "wrote BENCH_runner.json"

# bench regenerates the committed performance baselines: the selection
# micro-benchmarks (construction / Gain / Commit / GreedyFill / stale
# recompute at several scales) into BENCH_selection.json, and the
# engine-level Table-I run (incremental vs from-scratch selection) into
# BENCH_engine.json.
bench:
	$(GO) test -run='^$$' -bench=BenchmarkEvaluator -benchmem -benchtime=500ms ./internal/selection/ \
		| $(GO) run ./cmd/benchjson -o BENCH_selection.json
	@echo "wrote BENCH_selection.json"
	$(GO) test -run='^$$' -bench='BenchmarkEngineTable1|BenchmarkTransferSlowLink' -benchmem -benchtime=5x . \
		| $(GO) run ./cmd/benchjson -o BENCH_engine.json
	@echo "wrote BENCH_engine.json"

# bench-diff reruns the baseline benchmarks and compares them against the
# committed JSON documents; it fails when any ns/op or allocs/op ratio
# exceeds the threshold. The time threshold is generous because shared CI
# hardware is noisy; allocs/op is exact and is the real tripwire.
bench-diff:
	$(GO) test -run='^$$' -bench=BenchmarkEvaluator -benchmem -benchtime=300ms ./internal/selection/ \
		| $(GO) run ./cmd/benchjson -o .bench_selection_new.json
	$(GO) run ./cmd/benchjson -diff -threshold 1.6 BENCH_selection.json .bench_selection_new.json
	$(GO) test -run='^$$' -bench='BenchmarkEngineTable1|BenchmarkTransferSlowLink' -benchmem -benchtime=3x . \
		| $(GO) run ./cmd/benchjson -o .bench_engine_new.json
	$(GO) run ./cmd/benchjson -diff -threshold 1.6 BENCH_engine.json .bench_engine_new.json
	@rm -f .bench_selection_new.json .bench_engine_new.json
	@echo "bench-diff: no regressions"

# bench-short is the tier-1 smoke pass: every benchmark must run (a single
# iteration) without failing; timings are not meaningful.
bench-short:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-all runs every benchmark in the repository with full timings.
bench-all:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# Fuzz pass over the wire decoders (corruption hardening), the chunk
# reassembly store (bitmap/eviction/checksum invariants against a model
# oracle), and the arc-set geometry kernel every coverage computation
# bottoms out in. The Reassembly patterns are anchored: two targets share
# the prefix.
fuzz:
	$(GO) test -run=Fuzz -fuzz=FuzzRead -fuzztime=30s ./internal/wire/
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeMessage -fuzztime=30s ./internal/wire/
	$(GO) test -run=Fuzz -fuzz='FuzzReassembly$$' -fuzztime=30s ./internal/transfer/
	$(GO) test -run=Fuzz -fuzz='FuzzReassemblyImport$$' -fuzztime=30s ./internal/transfer/
	$(GO) test -run=Fuzz -fuzz=FuzzArcSet -fuzztime=30s ./internal/geo/

# fuzz-short is the tier-1 smoke pass over all fuzz targets: a few seconds
# each, enough to replay the corpus plus a quick mutation burst.
fuzz-short:
	$(GO) test -run=Fuzz -fuzz=FuzzRead -fuzztime=5s ./internal/wire/
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeMessage -fuzztime=5s ./internal/wire/
	$(GO) test -run=Fuzz -fuzz='FuzzReassembly$$' -fuzztime=5s ./internal/transfer/
	$(GO) test -run=Fuzz -fuzz='FuzzReassemblyImport$$' -fuzztime=5s ./internal/transfer/
	$(GO) test -run=Fuzz -fuzz=FuzzArcSet -fuzztime=5s ./internal/geo/

# trace-demo produces a sample observability bundle under trace-demo/: a
# JSONL event trace, the subsystem counters, and the run manifests.
trace-demo:
	mkdir -p trace-demo
	$(GO) run ./cmd/photodtn-sim -span 40 -sample 20 \
		-trace-out trace-demo/events.jsonl -metrics-out trace-demo/metrics.json
	@echo "wrote trace-demo/events.jsonl (+ metrics.json, manifests)"
