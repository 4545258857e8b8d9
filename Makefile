# LIFEGUARD reproduction — build, test, and lint entry points.
#
# `make lint` is the gate CI enforces: gofmt and the standard go vet
# passes. The repository's determinism rules are checked by tests: the
# replay tests at run time, and the root TestNoWallClock scan (no host
# clock, and no goroutine outside cmd/lifeguardd and internal/obs/obshttp)
# over the source (DESIGN.md §"Static analysis & invariants").

GO      ?= go
GOFMT   ?= gofmt
BIN     := bin

.PHONY: all build test lint race daemon-smoke fuzz-smoke mutants bench-all bench-gate parity clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint first fails on any tracked Go file gofmt would rewrite.
lint:
	@out=$$(git ls-files -z '*.go' | xargs -0 $(GOFMT) -l); \
	test -z "$$out" || { echo "gofmt -l: unformatted Go files:"; echo "$$out"; exit 1; }
	$(GO) vet ./...

# The only code that starts goroutines (TestNoWallClock holds every other
# package to none, and no test calls t.Parallel): internal/obs for its
# scrape-while-simulating contract — the HTTP exporter reads the registry
# and journal while a rig runs and adds tenants — and lifeguardd, whose
# signal handler and HTTP server run beside the simulation loop.
race:
	$(GO) test -race ./internal/obs/... ./cmd/lifeguardd/...

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

# A quick fuzz pass over the walk cache (random forwards, runs of one
# header through Flow.ForwardN, announcements and rule changes against the
# uncached walk), the control plane (random op streams of announcements,
# withdrawals, session changes and partial convergence on a world with the
# §7.1 import quirks, every route held to the decision order over AdjIn and
# at every quiescent point to refsolve's stable state), the reference
# solver (random shuffled-ASN provider trees and announcements, poisons,
# prepends, withholds, second origins and down sessions: refsolve's two
# sweeps held to the round iteration they replaced), the held probes
# (held pings, traces and reverse traces against the one-shot primitives
# on a twin plane, under route, rule and router-flag changes), the
# scheduler (random op
# programs, with delays from 1 ms to 48 h and on either side of 2^k ns,
# holding the radix heap to the container/heap reference model), the
# chaos script parser (no panics; accepted scripts round-trip) and the
# traffic churn (any counts up to 2^31 and any rate in [0, 1], subnormals
# included: population conserved, no negative count, draws exactly
# 2·departures + non-empty vantages); CI runs this on every push.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzWalkCache -fuzztime=20s ./internal/dataplane/
	$(GO) test -run '^$$' -fuzz=FuzzConverge -fuzztime=10s ./internal/bgp/
	$(GO) test -run '^$$' -fuzz=FuzzSolve -fuzztime=10s ./internal/bgp/refsolve/
	$(GO) test -run '^$$' -fuzz=FuzzHeldProbes -fuzztime=10s ./internal/probe/
	$(GO) test -run '^$$' -fuzz=FuzzScheduler -fuzztime=15s ./internal/simclock/
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/chaos/
	$(GO) test -run '^$$' -fuzz=FuzzChurn -fuzztime=5s ./internal/traffic/

# mutants re-runs the committed mutation-kill set: every diff under
# <pkg>/testdata/mutants/ (the engine's decision, import and export, the
# session-slot table and the MRAI horizon; the scheduler against its
# container/heap model; lossy rules, held probes and slab-carved hops on the
# walk cache; isolation's history reads; refsolve's sweeps and the
# hierarchy order; the chaos oracle and fault heals; the outage record's
# skip reasons; and one seeded violation per determinism class of DESIGN.md
# §7). On a copy of the tree it first runs every header clean, then applies
# each mutant alone and requires every test it names to fail, or its chaos
# command to count violations of the named invariant; a diff that no longer
# applies or a mutant that does not compile is an error. CI runs this on
# every push; scripts/mutants.sh <path.diff>... runs a few.
mutants:
	bash scripts/mutants.sh

# bench-all is a 1x pass over every Go benchmark in the repo (-short skips
# the 10k-AS ConvergenceScale and Solve cases); CI runs it on every push so that a
# benchmark that stops compiling or panics is seen. Performance is judged by the paired
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
