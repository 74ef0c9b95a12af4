# Development targets. The repo has no dependencies beyond the Go
# toolchain; everything here is `go` with the right flags.

GO ?= go

.PHONY: fmt build vet test race failover-race fuzz-smoke bench simbench advgen-smoke

# Fails listing every file gofmt would change (what CI's Format step
# runs).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: fmt build vet
	$(GO) test ./...

# One race pass over every package, twice in shuffled order so state
# leaked across tests or test-internal resets cannot hide a race (what
# CI runs).
race:
	$(GO) test -race -count=2 -shuffle=on -timeout 90m ./...

# The replica failover test and the journal-fence test, 20 times each
# under the race detector: a stale owner's late point must never reach
# the journal behind the new owner's replay (what CI runs).
failover-race:
	$(GO) test -race -count=20 -run 'TestReplicaFailoverMidSweep$$|TestStaleOwnerCannotJournalAfterTakeover$$' ./internal/service

# Bounded adversarial-generator smoke: the hill-climb must beat the
# worst paper workload's L1-I miss rate (what CI runs).
advgen-smoke:
	$(GO) run ./cmd/advgen -scheme discontinuity -seed 1 -iters 8 -assert-gain 1.05 -o /tmp/adv_smoke.json

# Short fuzz passes over the trace codecs, the content-defined chunker
# and the line-keyed hash table; CI runs the same smoke.
fuzz-smoke:
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzReader -fuzztime=10s
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzRoundTripV2 -fuzztime=10s
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzChunker -fuzztime=10s
	$(GO) test ./internal/linetab -run='^$$' -fuzz=FuzzTable -fuzztime=10s

bench:
	$(GO) test -bench='Figure|SourcesFor' -benchmem ./...

# The simulator's benchmark (simbench/, its own Go module): its vet and
# tests (the LRU L1-I model, replay equals live, fork batch equals
# solo, the corrupt-input checks), then a short run of each workload
# and one traced run. Fails unless every printed line reports
# "correct":true and "failed":0 (what CI runs).
simbench:
	cd simbench && $(GO) vet . && $(GO) test .
	@for run in "cmp-cold 0" "trace-replay 0" "daemon-sweep 0" "cmp-cold 1"; do \
		set -- $$run; \
		out=$$(bash simbench/run.sh --workload $$1 --seed 1 --seconds 2 --trace $$2); status=$$?; \
		echo "$$out"; \
		if [ $$status -ne 0 ] || ! echo "$$out" | awk '!/"correct":true/ || !/"failed":0[,}]/ {bad = 1} END {exit bad || NR == 0}'; then \
			echo "simbench $$1 --trace $$2: a check or an operation failed" >&2; exit 1; \
		fi; \
	done
