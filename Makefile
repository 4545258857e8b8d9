# LIFEGUARD reproduction — build, test, and static-analysis entry points.
#
# `make lint` is the gate CI enforces: the standard go vet passes plus the
# repo's own lglint analyzer suite (determinism & concurrency invariants;
# see internal/analysis and DESIGN.md §"Static analysis & invariants").

GO      ?= go
BIN     := bin
LGLINT  := $(BIN)/lglint

.PHONY: all build test lint race debug-test daemon-smoke fuzz-smoke bench-all bench-gate parity lglint lglint-bin clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lglint builds the vet tool; lglint-bin additionally prints its path so
# scripts can do: go vet -vettool=$$(make -s lglint-bin) ./...
lglint:
	@$(GO) build -o $(LGLINT) ./cmd/lglint

lglint-bin: lglint
	@echo $(LGLINT)

lint: lglint
	$(GO) vet ./...
	$(GO) vet -vettool=$(LGLINT) ./...

# The packages with real concurrency: internal/bgp (whose path arena keeps
# a lock for off-loop readers), the monitoring pipeline, and the parallel
# trial runner (plus the experiments and lgchaos trials that fan out on it
# and merge their per-trial registries through it). The dataplane
# rides along to hold Forward and ForwardBatch to the aliasing contracts
# (cached intra-AS paths and cached walks are shared, read-only) under the
# detector, and the prober and atlas because they are what reads those
# shared Results.
race:
	$(GO) test -race ./internal/bgp/... ./internal/monitor/... ./internal/runner/... ./internal/experiments/... ./cmd/lgchaos/... ./internal/dataplane/... ./internal/probe/... ./internal/atlas/...

# debug-test reruns the simulation-bearing packages with the simclockdebug
# ownership assertion compiled in: any scheduler touched from two
# goroutines panics instead of silently corrupting a run.
debug-test:
	$(GO) test -tags simclockdebug ./internal/simclock/... ./internal/runner/... ./internal/experiments/...

# daemon-smoke proves the long-running service contract end to end: a
# multi-tenant lifeguardd with the metrics endpoint up must answer
# /healthz and /metrics while simulating, then exit 0 on SIGTERM with the
# final JSON snapshot on stdout (the documented shutdown contract; the
# signal-path details are covered by cmd/lifeguardd's own tests).
daemon-smoke:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/lifeguardd ./cmd/lifeguardd
	@rm -f $(BIN)/daemon_smoke.out
	$(BIN)/lifeguardd -tenants 2 -hours 1000000 -failures 2 -http 127.0.0.1:18911 >$(BIN)/daemon_smoke.out & \
	pid=$$!; \
	for i in $$(seq 1 50); do curl -sf http://127.0.0.1:18911/healthz >/dev/null 2>&1 && break; sleep 0.1; done; \
	curl -sf http://127.0.0.1:18911/healthz || { kill $$pid; exit 1; }; \
	curl -sf http://127.0.0.1:18911/metrics | grep -q 'lifeguard_monitor_ping_rounds_total{tenant=' || { kill $$pid; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "daemon-smoke: nonzero exit on SIGTERM"; exit 1; }
	@grep -q '"metrics"' $(BIN)/daemon_smoke.out || { echo "daemon-smoke: no final snapshot on stdout"; exit 1; }
	@echo "daemon-smoke: healthz+metrics served; clean SIGTERM exit with final snapshot"

# A quick fuzz pass over the walk cache (random forwards, announcements and
# rule changes against the uncached walk), the scheduler (random op programs
# against the container/heap reference model) and the chaos script parser
# (no panics; accepted scripts round-trip); CI runs this on every push.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzWalkCache -fuzztime=20s ./internal/dataplane/
	$(GO) test -run '^$$' -fuzz=FuzzScheduler -fuzztime=15s ./internal/simclock/
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/chaos/

# bench-all is a 1x pass over every Go benchmark in the repo (-short skips
# the 10k-AS ConvergenceScale case). Performance is judged by the paired
# harness in benchmark/ (bash benchmark/run.sh --workload <w>; see
# BENCHMARK.json), not by these.
bench-all:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

# bench-gate runs the repository benchmark's four workloads (repair,
# converge, churn, traffic) for 8 s each and fails on any change in their
# simulated results (sim_latency_s, updates_per_op: exact) or a 5 % move in
# allocs_per_op (traffic's is printed only); ops_per_s is printed as
# advisory. See scripts/bench-gate.sh.
bench-gate:
	bash scripts/bench-gate.sh

# parity builds lgexp, lgchaos, lifeguardd and the examples from REV and
# from the working tree, runs the recorded commands with both, and fails
# unless every stdout and -obs snapshot is byte-identical — the ROADMAP's
# check for a behaviour-preserving change (REV: its parent commit). See
# scripts/parity.sh.
parity:
	@test -n "$(REV)" || { echo "usage: make parity REV=<rev>"; exit 2; }
	bash scripts/parity.sh $(REV)

clean:
	rm -rf $(BIN)
