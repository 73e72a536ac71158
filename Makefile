# Convenience targets for the FAST reproduction.

GO ?= go

.PHONY: all check build test test-short test-purego race chaos fuzz obs-smoke soak-smoke shard-chaos sim-golden bench bench-json benchdiff bench-serve-json benchdiff-serve tables cover fmt vet clean

all: build test

# The default pre-merge gate: static analysis, the full suite, the race
# detector over the concurrency tests, and the fault-injection chaos suite.
check: vet test race chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Skips the slow functional-bootstrapping tests (~40 s).
test-short:
	$(GO) test -short ./...

# Pure-Go leg: compile out the GOARCH-gated assembly kernels (internal/ring's
# AVX2 NTT/BConv routines) and run the suite against the reference loops —
# the build every non-amd64/arm64 platform gets. The differential asm tests
# skip themselves; everything else must pass identically.
test-purego:
	$(GO) build -tags purego ./...
	$(GO) test -tags purego -short ./...

# Race-detector pass over the whole module (the concurrency-model contract:
# one Context serving many goroutines). Uses -short so the gate stays fast.
race:
	$(GO) test -race -short ./...

# Chaos gate: the fault-injection suites under the race detector. Long random
# op sequences run under every fault scenario; decryptions must stay bit-exact
# with the fault-free run, and the simulator must be deterministic per fault
# seed. The fastd suite runs the serve loop in-process under every scenario:
# accepted responses must be bit-identical to a fault-free reference, shed and
# canceled requests must carry typed errors, and the circuit breaker must
# re-close once faults stop. (-short keeps the op count CI-sized; drop it for
# a deeper soak.)
chaos:
	$(GO) test -race -short -run 'Chaos|Fault|Resilience' . ./internal/sim ./internal/hemera ./cmd/fastsim ./cmd/fastd ./internal/serve ./internal/shard
	$(GO) test -race ./internal/fault

# Fuzz smoke pass: each target fuzzes for 10s (Go allows one -fuzz pattern
# per package invocation). Corpus findings land in testdata/fuzz/.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzEncodeDecode -fuzztime 10s ./internal/ckks
	$(GO) test -run '^$$' -fuzz FuzzReadCiphertext -fuzztime 10s ./internal/ckks
	$(GO) test -run '^$$' -fuzz FuzzCiphertextMarshal -fuzztime 10s ./internal/ckks
	$(GO) test -run '^$$' -fuzz FuzzContextConfig -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzSessionSnapshot -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzIdemJournal -fuzztime 10s ./cmd/fastd

# Observability smoke gate: boot the real fastd through run(), drive one
# evaluation with a pinned request ID, and assert every surface's contract —
# access-log JSON schema, /debug/requests shape, /metrics Prometheus-text
# validity (incl. the serve.latency.p* quantile gauges), /readyz quantiles,
# and request-ID attribution on both HTTP and evaluator trace spans.
obs-smoke:
	$(GO) test -race -run TestObsSmoke -v ./cmd/fastd

# Durability smoke gate: a CI-sized fastload soak — a few concurrent sessions
# under Zipf reuse with one SIGKILL+restart cycle mid-run against a spawned,
# race-instrumented fastd. Asserts the crash-safety contract end to end:
# restored decrypts bit-identical to the fault-free reference, ladder-typed
# errors only, exactly-once idempotent retries, p99 within SLO. The full-size
# soak is `go run ./cmd/fastload` (see its package doc).
soak-smoke:
	$(GO) test -race -run TestSoakSmoke -v ./cmd/fastload

# Shard-failover gate: fastload spawns a race-instrumented 3-shard fastd and
# fences one shard mid-soak through the chaos endpoint (an in-process SIGKILL:
# permanent fence, hash-range remap, snapshot failover). Asserts the daemon
# stays ready, the dead shard's sessions serve bit-identically from survivors,
# errors stay on the typed ladder, idempotent retries are exactly-once, and
# the shared evk tier shows cross-shard reuse within its byte budget.
shard-chaos:
	$(GO) test -race -run TestShardChaosSmoke -v ./cmd/fastload
	$(GO) test -race -run 'TestShard|TestIdemJournal|TestForward' -v ./cmd/fastd

bench:
	$(GO) test -bench=. -benchmem ./...

# Benchmark trajectory recording: run the hot-path kernel benchmarks (NTT,
# BConv/Convert, Mul, Rotate) plus the paper's Fig./Table benchmarks and write
# the results as JSON so kernel performance is tracked in-repo. Compare two
# recordings with `go run ./scripts/benchdiff OLD.json NEW.json`.
BENCH_PATTERN ?= NTT|Convert|Mul|Rotate|ModDown|Rescale|Fig|Table|Serve
BENCH_TIME ?= 0.5s
BENCH_JSON ?= BENCH_kernels.json

bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime $(BENCH_TIME) -benchmem ./... > .bench.out || (cat .bench.out; rm -f .bench.out; exit 1)
	$(GO) run ./scripts/benchjson < .bench.out > $(BENCH_JSON)
	@rm -f .bench.out
	@echo "wrote $(BENCH_JSON)"

# Re-run the kernel benchmarks and diff against the checked-in baseline.
# Fails when any kernel falls below BENCHDIFF_FAIL_BELOW x the recorded
# baseline (1.0 = no regression). Kernel benchmarks on shared runners are
# noisy; treat this as a soft signal there (CI runs it non-blocking) and as a
# hard gate only on quiet dedicated hardware. The fresh recording is left at
# BENCHDIFF_NEW so CI can upload it as an artifact alongside the baseline.
BENCHDIFF_FAIL_BELOW ?= 1.0
BENCHDIFF_NEW ?= BENCH_kernels_new.json

benchdiff:
	$(MAKE) bench-json BENCH_JSON=$(BENCHDIFF_NEW)
	$(GO) run ./scripts/benchdiff -fail-below $(BENCHDIFF_FAIL_BELOW) BENCH_kernels.json $(BENCHDIFF_NEW)

# Serve-throughput recording: end-to-end daemon eval under concurrent load.
# FASTD_SEQUENTIAL=1 records the straight-line (no micro-batching) mode; the
# checked-in BENCH_serve_pre.json baseline was recorded that way:
#
#	FASTD_SEQUENTIAL=1 make bench-serve-json BENCH_SERVE_JSON=BENCH_serve_pre.json
BENCH_SERVE_TIME ?= 3s
BENCH_SERVE_JSON ?= BENCH_serve.json

bench-serve-json:
	$(GO) test -run '^$$' -bench ServeThroughput -benchtime $(BENCH_SERVE_TIME) ./cmd/fastd > .bench_serve.out || (cat .bench_serve.out; rm -f .bench_serve.out; exit 1)
	$(GO) run ./scripts/benchjson < .bench_serve.out > $(BENCH_SERVE_JSON)
	@rm -f .bench_serve.out
	@echo "wrote $(BENCH_SERVE_JSON)"

# Serve-throughput gate: record the straight-line baseline and the batched
# mode back to back on the same machine and require cross-request
# micro-batching to be at least 5% faster (locally it measures ~1.3x; the
# margin absorbs runner noise). Machine-independent by construction — both
# recordings are fresh, the checked-in BENCH_serve_pre.json is the reference
# trajectory, not the gate input.
# Both recordings are left on disk (BENCH_serve_seq.json / BENCH_serve_new.json)
# so CI uploads the measured trajectory as artifacts.
benchdiff-serve:
	FASTD_SEQUENTIAL=1 $(MAKE) bench-serve-json BENCH_SERVE_JSON=BENCH_serve_seq.json
	$(MAKE) bench-serve-json BENCH_SERVE_JSON=BENCH_serve_new.json
	$(GO) run ./scripts/benchdiff -fail-below 1.05 BENCH_serve_seq.json BENCH_serve_new.json

# Simulator golden gate: fastbench is its own module, so `go test ./...` never
# runs it. A short sim-tables smoke run calls fast.Simulate over 4 workloads x
# 7 accelerators x 4 plan modes and fails unless every simulated statistic is
# bit-equal to fastbench/golden/sim_tables.json.
sim-golden:
	bash fastbench/run.sh --workload sim-tables --seed 1 --seconds 2 --trace 0 --smoke

# Regenerate every table and figure of the paper's evaluation.
tables:
	$(GO) run ./cmd/benchtables

# Coverage with a per-function summary (writes cover.out next to the total).
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 25
	@echo "full per-function report: $(GO) tool cover -func=cover.out"
	@echo "HTML report:              $(GO) tool cover -html=cover.out"

fmt:
	gofmt -w .

# Static analysis: go vet plus a gofmt cleanliness check (fails listing any
# file that gofmt would rewrite).
vet:
	$(GO) vet ./...
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

clean:
	$(GO) clean ./...
	rm -f cover.out BENCH_kernels_new.json BENCH_serve_seq.json BENCH_serve_new.json
