# Development targets. `make verify` is the gate a change must pass:
# vet plus the full test suite under the race detector (the serving
# runtime is concurrent by design — races are correctness bugs here),
# then vet and tests of the bench/ module. bench/ has its own go.mod,
# so `go build ./...` at the root never compiles it; a change to an
# internal API it imports would otherwise break the benchmark unseen.

GO ?= go

# Stable benchmark settings for the committed baseline: a time-based
# benchtime so every benchmark — 2µs cache hits and 35ms parallel fits
# alike — averages its ns/op over the same ~1s wall window (this box
# sees hypervisor CPU steal that swings sub-millisecond windows 2x;
# equal windows make the mean comparable across benchmarks), three
# runs per benchmark collapsed to best-of-N by benchjson, and
# allocation reporting so allocs/op regressions are caught alongside
# ns/op.
BENCHTIME ?= 1s
BENCHCOUNT ?= 3
BENCH_PATTERN := BenchmarkServeAnnotate|BenchmarkServeAnnotateBatch|BenchmarkFoldInPlacement|BenchmarkFoldInSteadyState|BenchmarkGibbsSweep|BenchmarkBundleSave|BenchmarkBundleLoad|BenchmarkModelLoad|BenchmarkSupervisedFit|BenchmarkUnsupervisedFit|BenchmarkParallelFit|BenchmarkIngestAck|BenchmarkServeAnnotateFreshRecipe

.PHONY: build test verify smoke bench-serve bench bench-compare bench-all bench-e2e profile fuzz-smoke pgo pgo-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

verify: smoke pgo-check
	$(GO) vet ./... && $(GO) test -race ./...
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# Guard against a silently dropped profile: when default.pgo is checked
# in, the toolchain must actually feed it to the compiler (-pgo=auto is
# the default since Go 1.21, but a stray GOFLAGS=-pgo=off or a moved
# profile would disable it without failing the build). Builds the
# server binary and inspects its recorded build settings.
pgo-check:
	@if [ -f cmd/textureserver/default.pgo ]; then \
		$(GO) build -o .pgocheck.bin ./cmd/textureserver; \
		if ! $(GO) version -m .pgocheck.bin | grep -q -- '-pgo='; then \
			echo "verify: cmd/textureserver/default.pgo exists but the build does not consume it"; \
			rm -f .pgocheck.bin; exit 1; \
		fi; \
		rm -f .pgocheck.bin; \
		echo "pgo-check: build consumes default.pgo"; \
	fi

# The self-healing smoke: health classification, supervisor recovery,
# checkpoint rollback, the robust store envelope (breaker/retry), the
# model registry, the replica follower, and the annotation cache with
# its single-flight dedup and drain gating — all under the race
# detector. A fast subset of verify for iterating on the fit-recovery
# and fleet-rollout machinery, and an explicit gate inside it — these
# paths involve watchdog goroutines, an async checkpoint writer, a
# polling hot-swap loop, and flight-completion channels, so they must
# stay race-clean. The client SDK's retry/taxonomy contract tests ride
# along (they are httptest-only and fast), as do the exact parallel
# kernel's tests (Parallel) — its workers write disjoint recipes and
# private count deltas, and that is exactly what must not race.
# The online-ingest suite joins the gate in full: the WAL's group-commit
# fsync, the kill -9 chaos harness, and the background refit controller
# are concurrent durability machinery — the exact code this smoke exists
# to keep race-clean. Every chain, supervised or not, runs through the
# supervisor with its background checkpoint writer and stall watchdog,
# so the plain checkpoint and resume tests join the gate too.
smoke:
	$(GO) test -race -run 'Health|Supervis|Rollback|Checkpoint|Resume|Breaker|Robust|Store|Registry|Follower|Cache|Drain|Parallel|Chaos|Stream|Ingest|WAL|Refit' ./internal/core ./internal/resilience ./internal/pipeline ./internal/storage ./internal/serve
	$(GO) test -race ./internal/ingest
	$(GO) test -race ./client

# The pooled serve-path benchmark: tracks end-to-end /annotate
# latency and shed count across PRs.
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServeAnnotate' -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -benchmem .

# The serving-stack baseline: runs the serve-path (single and batch),
# fold-in, sampler-sweep, and bundle save/load benchmarks and writes
# the parsed results to BENCH_serve.json so a PR can diff numbers
# against the committed baseline.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_serve.json

# Regression gate: rerun the baseline suite into a scratch file and
# fail (non-zero exit) if any shared benchmark slowed down more than
# 15% in ns/op versus the committed BENCH_serve.json.
bench-compare:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_new.json
	$(GO) run ./cmd/benchjson -compare -threshold 15 BENCH_serve.json BENCH_new.json

bench-all:
	$(GO) test -run '^$$' -bench . .

# The end-to-end benchmark BENCHMARK.json declares: every workload once
# (open-loop HTTP load on a real textureserver, and the corpus →
# promoted-bundle refit) with seed 1. Builds into .bench_build/ and
# exits non-zero unless every workload is correct.
bench-e2e:
	bash bench/run.sh --workload all --seed 1

# Profile-guided optimization: collect CPU profiles from the fit-path
# and serve-path benchmarks separately, merge them with pprof, and
# check the result in as cmd/textureserver/default.pgo, which -pgo=auto
# feeds to every build of the server. Only main packages consume a
# default.pgo: test binaries, and so the microbenchmarks, never do.
# Time-based benchtime so both profiles carry comparable sample mass
# regardless of per-op cost.
PGO_BENCHTIME ?= 2s
pgo:
	$(GO) test -run '^$$' -bench 'BenchmarkGibbsSweep|BenchmarkUnsupervisedFit|BenchmarkSupervisedFit' \
		-benchtime $(PGO_BENCHTIME) -cpuprofile pgo_fit.pprof .
	$(GO) test -run '^$$' -bench 'BenchmarkServeAnnotate$$|BenchmarkServeAnnotateHot|BenchmarkFoldInSteadyState|BenchmarkFoldInPlacement' \
		-benchtime $(PGO_BENCHTIME) -cpuprofile pgo_serve.pprof .
	$(GO) tool pprof -proto pgo_fit.pprof pgo_serve.pprof > cmd/textureserver/default.pgo
	rm -f pgo_fit.pprof pgo_serve.pprof repro.test
	@echo "cmd/textureserver/default.pgo refreshed"

# CPU and heap profiles of the sampler hot path, for pprof:
#   go tool pprof cpu.pprof
profile:
	$(GO) test -run '^$$' -bench BenchmarkGibbsSweep -benchtime $(BENCHTIME) \
		-cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "profiles written: cpu.pprof mem.pprof (inspect with: go tool pprof cpu.pprof)"

# Each fuzz corpus for ~10s: cheap continuous assurance that no input
# can panic the durable-format loaders, the tokenizer, or the unit
# parser. Run before cutting a release; CI-friendly wall time.
# Minimisation is off: by default each new input gets up to 60s of it,
# which stalls a 10s slot ("0/sec" intervals) so that every fuzzer
# finds fewer new inputs (FuzzBundlePayload: 3 against 167 in one
# slot). A crasher is still saved under testdata/fuzz, unminimised.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzLoadBundle -fuzztime 10s -fuzzminimizetime 0 ./internal/pipeline
	$(GO) test -run '^$$' -fuzz FuzzLoadModel -fuzztime 10s -fuzzminimizetime 0 ./internal/pipeline
	$(GO) test -run '^$$' -fuzz FuzzBundlePayload -fuzztime 10s -fuzzminimizetime 0 ./internal/pipeline
	$(GO) test -run '^$$' -fuzz FuzzReadCheckpoint -fuzztime 10s -fuzzminimizetime 0 ./internal/pipeline
	$(GO) test -run '^$$' -fuzz FuzzIngestWatermark -fuzztime 10s -fuzzminimizetime 0 ./internal/pipeline
	$(GO) test -run '^$$' -fuzz FuzzRegistryManifest -fuzztime 10s -fuzzminimizetime 0 ./internal/storage
	$(GO) test -run '^$$' -fuzz FuzzTokenize -fuzztime 10s -fuzzminimizetime 0 ./internal/textseg
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 0 ./internal/units
	$(GO) test -run '^$$' -fuzz FuzzWALRecord -fuzztime 10s -fuzzminimizetime 0 ./internal/ingest
