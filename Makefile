# Developer entry points. `make check` is the gate every change must pass:
# vet, the predlint static-analysis pass, and the full test suite under the
# race detector (the parallel sweep engine and suite generation run
# concurrent paths in ordinary tests).

GO ?= go

.PHONY: check vet lint lint-self lint-timed test race race-hammer bench build obs-demo serve-demo chaos-demo trace-demo load-demo cluster-demo fuzz-smoke cover bench-ledger throughput-smoke

check: vet lint race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: determinism, hot-path discipline, obs
# nil-safety, panic-free libraries, exhaustive enum switches, and the
# concurrency contracts (guardedby, atomiconly, goroutineown, staleignore).
# Exits non-zero on any unsuppressed finding.
lint:
	$(GO) run ./cmd/predlint

# The analyzer analyzing itself: the full check set over the module, with
# findings filtered to internal/lint. predlint must hold its own source to
# the contracts it enforces (TestSelfClean is the test-suite twin).
lint-self:
	$(GO) run ./cmd/predlint -only internal/lint

# Latency guard for the full lint pass: build the binary, then the
# analysis itself (load + typecheck + all nine checks over the module)
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
# trims the scheme matrix to keep the CI step tight.
race-hammer:
	$(GO) test -race -short -count=1 ./internal/serve -run 'TestChaos'

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

# Prediction-service demo: start predserve on a loopback port, drive every
# endpoint with a scripted session, print each exchange, drain.
serve-demo:
	$(GO) run ./cmd/predserve -demo

# Chaos demo: stream a trace at a fault-injected server (drops, delays,
# 500s, connection resets), kill it mid-stream, restore the checkpoint in
# a second server at a different shard count, and verify the served
# predictions byte-identical against the fault-free offline engine.
chaos-demo:
	$(GO) run ./cmd/predserve -chaos-demo

# Flight-recorder demo: boot an in-process server with seeded chaos
# faults, stream batches at it, fetch /v1/debug/{requests,slow}, and
# render the per-stage waterfall — every injected fault correlated to a
# client request ID, or the demo exits non-zero.
trace-demo:
	$(GO) run ./cmd/predtrace -demo

# Load-generator demo: boot an in-process server, drive it with a seeded
# 2-second open-loop poisson run over the binary transport, write the
# predload-slo/v1 ledger, and re-validate it through benchledger.
load-demo:
	$(GO) run ./cmd/predload -demo -out BENCH_predload.json
	$(GO) run ./cmd/benchledger -check BENCH_predload.json

# Cluster demo: the self-contained predroute walkthrough (3 backends +
# standby in-process; live migration under load, a mid-stream kill with
# standby failover, served predictions verified byte-identical against
# the fault-free offline engine), then the capacity-planning mode over
# an in-process cluster, its predload-cluster/v1 ledger re-validated.
cluster-demo:
	$(GO) run ./cmd/predroute -demo
	$(GO) run ./cmd/predload -demo -cluster -out BENCH_cluster.json
	$(GO) run ./cmd/benchledger -check BENCH_cluster.json

# Short native-fuzzing pass over the serialized attack surfaces: the JSON
# event decoder, the COHWIRE1 batch/reply decoders (plus the JSON↔binary
# cross-equivalence property), the shard router's co-location invariants,
# the engine-checkpoint wire decoder, the COHTRACE1 trace decoders, and
# the cluster control-plane codecs.
fuzz-smoke:
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzDecodeEventRequest -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzDecodeWireBatch -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzDecodeWireReply -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzWireJSONCross -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzRouteKey -fuzztime=10s
	$(GO) test ./internal/eval -run='^$$' -fuzz=FuzzDecodeSnapshot -fuzztime=10s
	$(GO) test ./internal/traffic -run='^$$' -fuzz=FuzzDecodeTraceFile -fuzztime=10s
	$(GO) test ./internal/traffic -run='^$$' -fuzz=FuzzDecodeTraceRecord -fuzztime=10s
	$(GO) test ./internal/cluster -run='^$$' -fuzz=FuzzDecodeMigrateRequest -fuzztime=10s
	$(GO) test ./internal/cluster -run='^$$' -fuzz=FuzzDecodeClusterStatus -fuzztime=10s

# Regenerate the committed benchmark ledger: the transport comparison
# (codec-level halves from the repo root, end-to-end HTTP pair from
# internal/serve, the routed counterpart from internal/cluster whose
# delta against BenchmarkServeWire/http is the router's overhead)
# distilled into BENCH_predserve.json, then re-validated.
bench-ledger:
	$(GO) test -run='^$$' -bench='BenchmarkServe(JSON|Wire)' -benchmem . ./internal/serve ./internal/cluster \
		| $(GO) run ./cmd/benchledger -out BENCH_predserve.json
	$(GO) run ./cmd/benchledger -check BENCH_predserve.json

# Throughput floors, explicitly non-short: JSON must hold 100k events/sec
# end to end, COHWIRE1 must hold 500k direct to a backend, with recording
# on, and routed through the cluster router. CI runs this as a smoke step;
# it is the only place the floors run, because `make check` uses the race
# detector, under which every floor skips.
throughput-smoke:
	$(GO) test ./internal/serve ./internal/cluster -run='TestThroughputFloor' -count=1 -v

# Coverage ratchet: per-package statement-coverage floors sit a few points
# below measured coverage, so a change that lands a chunk of untested code
# in the serving/eval/fault/client layers fails the build.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./internal/serve ./internal/eval ./internal/fault ./internal/client ./internal/flight ./internal/lint ./internal/traffic ./internal/cluster ./cmd/predtrace
	$(GO) run ./cmd/covergate -profile cover.out \
		internal/serve=85 internal/eval=88 internal/fault=95 internal/client=72 \
		internal/flight=85 internal/lint=85 internal/traffic=85 internal/cluster=85 cmd/predtrace=80 \
		internal/serve/wire.go=85 \
		internal/lint/check_guardedby.go=85 internal/lint/check_atomiconly.go=85 \
		internal/lint/check_goroutineown.go=90 internal/lint/check_staleignore.go=90
