# Local and CI entry points — .github/workflows/ci.yml calls exactly
# these targets, so a green `make ci` means a green workflow run
# (except `lint`, which fetches its pinned tools from the network and
# therefore runs in CI and on demand, not inside `make ci`).

GO ?= go

# Pinned static-analysis tool versions (the lint job must not float).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# Coverage floor for the scheduling/storage/cluster core (percent).
# go test -cover must not report a combined total below this.
COVER_FLOOR ?= 65

# Label baked into the bench-json artifact (CI passes the commit sha).
BENCH_LABEL ?= local

# Previous artifact for bench-compare (CI downloads the last run's
# upload here before comparing).
BENCH_BASELINE ?= out/bench/previous/BENCH_previous.json

# Regression threshold for bench-compare, as a fraction (0.10 = 10%).
BENCH_THRESHOLD ?= 0.10

# Benchmark driven by the pprof-* targets (see docs/PERFORMANCE.md).
PPROF_BENCH ?= BenchmarkClusterAggregation
PPROF_PKG ?= .

.PHONY: build test vet fmt fmt-check bench bench-json bench-compare \
	pprof-cpu pprof-alloc cover-check tidy-check \
	stress fuzz-smoke lint docs-check \
	smoke smoke-e6-cross smoke-r1 smoke-c1 ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Repeat the concurrency tests 50 times, with and without the race
# detector: a 1-in-2 interleaving flake fails here instead of landing.
# (`test` already runs every test once under -race.)
stress:
	$(GO) test -race -count=50 -run 'Failure|Reform|Reroute|Service|Broker' ./internal/cluster ./internal/storage
	$(GO) test -count=50 -run 'Failure|Reform|Reroute|Service|Broker' ./internal/cluster ./internal/storage

# Experiment smoke run at quick scale: `make smoke EXP=<id>` for any
# registered id (`damaris-bench -list`). ci.yml fans the ids out via
# strategy.matrix so a broken experiment names itself in the job list;
# the smoke-* targets below are the modes that take several commands.
smoke:
	@test -n "$(EXP)" || { echo "usage: make smoke EXP=<experiment id>"; exit 2; }
	$(GO) run ./cmd/damaris-bench -quick -exp $(EXP)

# The cross-root E6 mode: -sched cluster-token restricts E6 to the
# cluster-wide token sweep (DES + runtime faces).
smoke-e6-cross:
	$(GO) run ./cmd/damaris-bench -quick -exp e6 -sched cluster-token

# R1 checkpoint/restart experiment at smoke scale: write objects +
# manifests into an sdf store, restore them, then replay the artifacts
# through -restart-from (the full object read path end to end).
smoke-r1:
	$(GO) run ./cmd/damaris-bench -quick -exp r1 -backend sdf -backend-dir out/smoke-r1
	$(GO) run ./cmd/damaris-bench -restart-from out/smoke-r1/fail0

# C1 compression smoke: the codec × dataset sweep with the adaptive
# selector at quick scale, then a compressed-store restart round trip
# on disk — write framed objects through the adaptive pipeline, replay
# them via -restart-from, and list them with sdfdump (codec + ratio).
smoke-c1:
	$(GO) run ./cmd/damaris-bench -quick -exp c1
	$(GO) run ./cmd/damaris-bench -quick -exp r1 -backend sdf -codec adaptive -backend-dir out/smoke-c1
	$(GO) run ./cmd/damaris-bench -restart-from out/smoke-c1/fail0
	$(GO) run ./cmd/sdfdump out/smoke-c1/fail0

# Short fuzz passes over the object decoders; `go test -fuzz` takes
# one package per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBatchCodec$$' -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzManifestV2Decode$$' -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 10s ./internal/storage
	$(GO) test -run '^$$' -fuzz '^FuzzChunkFrameDecode$$' -fuzztime 10s ./internal/storage/chunk

# Static analysis at pinned versions (fetches the tools on demand, so
# it needs network access; CI runs it as its own job).
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Documentation invariants: intra-repo markdown links resolve and every
# package has a godoc package comment (see cmd/docscheck).
docs-check:
	$(GO) run ./cmd/docscheck

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# bench-json runs the benchmarks and archives them as a machine-readable
# BENCH_<label>.json under out/bench/, so the perf trajectory accumulates
# run over run (CI uploads the file as an artifact). Two steps, not a
# pipe: a failing benchmark run must fail the target, not hand benchjson
# a truncated stream it would happily parse.
bench-json:
	@mkdir -p out/bench
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./... > out/bench/bench.txt
	$(GO) run ./cmd/benchjson -label $(BENCH_LABEL) \
		-out out/bench/BENCH_$(BENCH_LABEL).json < out/bench/bench.txt

# bench-compare diffs the freshly built BENCH_<label>.json against the
# previous run's artifact and fails on a >$(BENCH_THRESHOLD) regression
# in ns/op or MB/s. A missing baseline (first run, expired artifact)
# passes with a notice — see cmd/benchcompare.
bench-compare: bench-json
	$(GO) run ./cmd/benchcompare -old $(BENCH_BASELINE) \
		-new out/bench/BENCH_$(BENCH_LABEL).json -threshold $(BENCH_THRESHOLD)

# Profiling entry points for the hot-path work: run one benchmark long
# enough to sample, drop the profile under out/pprof/, and print the
# top functions. Override PPROF_BENCH/PPROF_PKG to aim elsewhere, e.g.
#   make pprof-cpu PPROF_BENCH=BenchmarkTimerDispatch PPROF_PKG=./internal/des
pprof-cpu:
	@mkdir -p out/pprof
	$(GO) test $(PPROF_PKG) -run '^$$' -bench '^$(PPROF_BENCH)$$' -benchtime 2s \
		-cpuprofile out/pprof/cpu.prof
	$(GO) tool pprof -top -nodecount=20 out/pprof/cpu.prof

pprof-alloc:
	@mkdir -p out/pprof
	$(GO) test $(PPROF_PKG) -run '^$$' -bench '^$(PPROF_BENCH)$$' -benchtime 2s \
		-memprofile out/pprof/alloc.prof
	$(GO) tool pprof -top -nodecount=20 -sample_index=alloc_space out/pprof/alloc.prof

# cover-check enforces the checked-in coverage floor over the scheduling
# core: internal/iostrat + internal/storage (chunk store included) +
# internal/cluster + internal/workload combined.
cover-check:
	@mkdir -p out
	$(GO) test -coverprofile=out/cover.out ./internal/iostrat ./internal/storage ./internal/storage/chunk ./internal/cluster ./internal/workload
	@$(GO) tool cover -func=out/cover.out | awk '/^total:/ { \
		sub("%","",$$3); \
		if ($$3+0 < $(COVER_FLOOR)) { \
			printf "coverage %.1f%% below the %d%% floor\n", $$3, $(COVER_FLOOR); exit 1 \
		} else { \
			printf "coverage %.1f%% (floor %d%%)\n", $$3, $(COVER_FLOOR) \
		} }'

# tidy-check fails when go.mod/go.sum drift from what go mod tidy would
# write.
tidy-check:
	$(GO) mod tidy -diff

ci: build vet fmt-check tidy-check docs-check test stress cover-check bench \
	smoke-e6-cross smoke-r1 smoke-c1 fuzz-smoke
	@for e in e1 e5 e6 f1 e9 e10 e7s e11; do $(MAKE) --no-print-directory smoke EXP=$$e || exit 1; done
