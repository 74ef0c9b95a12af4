# Development targets. The repo has no dependencies beyond the Go
# toolchain; everything here is `go` with the right flags.

GO ?= go

.PHONY: build vet test race fuzz-smoke bench bench-sweep bench-dist bench-trace bench-core bench-pref bench-service advgen-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build vet
	$(GO) test ./...

# One race pass over every package, twice in shuffled order so state
# leaked across tests or test-internal resets cannot hide a race (what
# CI runs).
race:
	$(GO) test -race -count=2 -shuffle=on -timeout 90m ./...

# Bounded adversarial-generator smoke: the hill-climb must beat the
# worst paper workload's L1-I miss rate (what CI runs).
advgen-smoke:
	$(GO) run ./cmd/advgen -scheme discontinuity -seed 1 -iters 8 -assert-gain 1.05 -o /tmp/adv_smoke.json

# Short fuzz passes over the trace codecs and the content-defined
# chunker; CI runs the same smoke.
fuzz-smoke:
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzReader -fuzztime=10s
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzRoundTripV2 -fuzztime=10s
	$(GO) test ./internal/corpus -run='^$$' -fuzz=FuzzChunker -fuzztime=10s

bench:
	$(GO) test -bench=Figure -benchmem ./...

# Sweep-throughput trajectory: writes BENCH_sweep.json (points/sec for
# cold and memoised passes, memo-hit ratio) for cross-PR comparison.
bench-sweep:
	$(GO) run ./cmd/sweepbench -o BENCH_sweep.json

# Distributed-sweep scaling trajectory: writes BENCH_dist.json
# (points/sec with 1 worker vs a 4-worker fleet over real HTTP leases).
bench-dist:
	$(GO) run ./cmd/distbench -o BENCH_dist.json

# Trace codec trajectory: writes BENCH_trace.json (v1 vs v2 encode and
# decode throughput, compression ratio, 1-vs-4-shard decode scaling,
# plus per-workload chunk-codec comparison rows — flate vs the
# delta+varint columnar pre-pass — and cross-seed chunk dedup ratios).
bench-trace:
	$(GO) run ./cmd/tracebench -o BENCH_trace.json

# Simulation hot-path trajectory: writes BENCH_core.json
# (instructions/sec per scheme × core count). The build picks up
# cmd/corebench/default.pgo automatically for profile-guided optimisation.
bench-core:
	$(GO) run ./cmd/corebench -o BENCH_core.json

# Control-plane saturation trajectory: writes BENCH_service.json
# (p50/p99/p999 job latency, sweeps/s, shed rate) from a closed-loop
# 1k-client run against an in-process daemon with admission enabled.
bench-service:
	$(GO) run ./cmd/loadgen -self -clients 1024 -duration 30s -quota-per-sec 200 -out BENCH_service.json

# Prefetcher-zoo trajectory: writes BENCH_pref.json (per-scheme
# Minstr/s, accuracy and miss coverage vs the no-prefetch baseline on
# the four paper workloads, with per-component attribution for
# hybrid:* composites).
bench-pref:
	$(GO) run ./cmd/prefbench -o BENCH_pref.json
