# Developer entry points. `make check` is the gate every change must pass:
# vet, the predlint static-analysis pass, and the full test suite under the
# race detector (the parallel sweep engine and suite generation run
# concurrent paths in ordinary tests).

GO ?= go

.PHONY: check vet lint lint-self lint-timed test race race-hammer bench build obs-demo fuzz-smoke cover throughput-smoke bench-smoke loc

check: vet lint race

build:
	$(GO) build ./...

# The benchmark harness in _perfbench is a module of its own, outside
# ./..., so it is vetted (and so compiled) separately: a rename of a name
# it calls fails here rather than in a benchmark run.
vet:
	$(GO) vet ./...
	$(GO) -C _perfbench vet .

# Project-specific static analysis: determinism, hot-path discipline, obs
# nil-safety, panic-free libraries, exhaustive enum switches, the
# concurrency contracts (guardedby, atomiconly, goroutineown), no exported
# name that only tests use (testonly), and no stale directive (staleignore).
# Exits non-zero on any unsuppressed finding.
lint:
	$(GO) run ./cmd/predlint

# The analyzer analyzing itself: the full check set over the module, with
# findings filtered to internal/lint. predlint must hold its own source to
# the contracts it enforces (TestSelfClean is the test-suite twin).
lint-self:
	$(GO) run ./cmd/predlint -only internal/lint

# Latency guard for the full lint pass: build the binary, then the
# analysis itself (load + typecheck + all ten checks over the module)
# must finish within 30 seconds or the target fails. Keeps the pre-commit
# gate cheap enough that nobody is tempted to skip it.
lint-timed:
	$(GO) build -o /tmp/predlint-timed ./cmd/predlint
	timeout 30 /tmp/predlint-timed -root .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The chaos-equivalence hammer under the race detector: injected drops,
# delays, 500s, resets, and a mid-stream kill+restore, with every shared
# structure the new guardedby/atomiconly annotations claim to protect
# exercised concurrently. Static checking proves lock discipline on every
# path; this proves the locks are the *right* locks at runtime. -short
# trims the scheme matrix to keep the CI step tight. Then four tests run
# twenty times each, since a single pass rarely reaches their
# interleavings: concurrent posts meeting a kernel panic under the table
# lock, keyed posts racing snapshots (exactly-once across a restore),
# and the first uses of a dormant restored session racing each other, or
# racing its DELETE.
race-hammer:
	$(GO) test -race -short -count=1 ./internal/serve -run 'TestChaos'
	$(GO) test -race -count=20 ./internal/serve -run 'TestPostPanicPoisonsSession|TestSnapshotRaceExactlyOnce|TestConcurrentWakeBuildsOnce|TestDeleteRacingWake'

# Benchmark the sweep engine only (serial baseline + parallel family).
bench:
	$(GO) test -run='^$$' -bench='Sweep' -benchmem .

# Full benchmark suite: every table, figure, ablation and hot path.
bench-all:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# Quick observability demo: run the sweep probe at test scale, write a
# metrics snapshot to obs.json and print the span tree (stderr).
obs-demo:
	$(GO) run ./cmd/predsim -scale test -quick -obs obs.json

# Short native-fuzzing pass over the serialized attack surfaces: the JSON
# event decoder, the COHWIRE1 batch/reply decoders (plus the JSON↔binary
# cross-equivalence property and the differential check against the
# two-pass reference decoders), the session snapshot's Extra section, the
# dormant snapshot restore (differential against the eager one), the
# engine-checkpoint wire decoder, the snapshot entry kernels
# (differential against the Reader), the COHTRACE1 trace decoders, the
# COHPRED2 trace reader, and the cluster control-plane codecs.
fuzz-smoke:
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzDecodeEventRequest -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzDecodeWireBatch -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzDecodeWireReply -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzWireJSONCross -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzWireDecodeDifferential -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzDecodeSessionExtra -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzDormantRestore -fuzztime=10s
	$(GO) test ./internal/eval -run='^$$' -fuzz=FuzzDecodeSnapshot -fuzztime=10s
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzImportEntries -fuzztime=10s
	$(GO) test ./internal/traffic -run='^$$' -fuzz=FuzzDecodeTraceFile -fuzztime=10s
	$(GO) test ./internal/traffic -run='^$$' -fuzz=FuzzDecodeTraceRecord -fuzztime=10s
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzRead -fuzztime=10s
	$(GO) test ./internal/cluster -run='^$$' -fuzz=FuzzDecodeMigrateRequest -fuzztime=10s
	$(GO) test ./internal/cluster -run='^$$' -fuzz=FuzzDecodeClusterStatus -fuzztime=10s

# Throughput floors, explicitly non-short: JSON must hold 100k events/sec
# end to end, COHWIRE1 must hold 500k direct to a backend, with recording
# on, and routed through the cluster router. CI runs this as a smoke step;
# it is the only place the floors run, because `make check` uses the race
# detector, under which every floor skips.
throughput-smoke:
	$(GO) test ./internal/serve ./internal/cluster -run='TestThroughputFloor' -count=1 -v

# The benchmark's own correctness check, in short runs: serve-bulk and
# cluster-small each run two seconds from seed 1, and every result line
# must say "correct":true with no failed operation. A served prediction
# that differs from the offline engine's, or a batch trained twice,
# fails here before the benchmark pipeline sees it.
bench-smoke:
	@for w in serve-bulk cluster-small; do \
		out=$$(bash _perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0) || exit 1; \
		echo "$$out"; \
		if [ -z "$$out" ] || echo "$$out" | grep -v '"correct":true' | grep -q . \
			|| echo "$$out" | grep -Ev '"failed":0[,}]' | grep -q .; then \
			echo "bench-smoke: $$w: a run was not correct or failed operations" >&2; exit 1; \
		fi; \
	done

# Net non-test Go lines, the size every change reports: every tracked
# .go file except tests and the _perfbench harness. Untracked files are
# not counted, so stage new files first.
loc:
	@git ls-files '*.go' ':!:*_test.go' ':!:_perfbench/*' | xargs cat | wc -l

# Coverage ratchet: per-package statement-coverage floors sit a few points
# below measured coverage, so a change that lands a chunk of untested code
# in the codec core (codec, trace), the predictor kernel (core, search),
# the simulator (sched, cache, directory, machine) or the
# serving/eval/fault/client layers fails the build.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./internal/codec ./internal/trace ./internal/serve ./internal/eval ./internal/fault ./internal/client ./internal/flight ./internal/lint ./internal/traffic ./internal/cluster ./cmd/predtrace ./cmd/predload ./internal/core ./internal/search ./internal/sched ./internal/cache ./internal/directory ./internal/machine
	$(GO) run ./cmd/covergate -profile cover.out \
		internal/codec=95 internal/trace=94 \
		internal/serve=85 internal/eval=88 internal/fault=95 internal/client=72 \
		internal/core=93 internal/search=92 \
		internal/sched=96 internal/cache=90 internal/directory=90 internal/machine=88 \
		internal/flight=85 internal/lint=85 internal/traffic=85 internal/cluster=85 cmd/predtrace=80 cmd/predload=55 \
		internal/serve/wire.go=85 \
		internal/lint/flow.go=90 \
		internal/lint/check_guardedby.go=85 internal/lint/check_atomiconly.go=85 \
		internal/lint/check_goroutineown.go=90 internal/lint/check_staleignore.go=90
