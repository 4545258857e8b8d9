#!/usr/bin/env bash
# bench-gate: the repository benchmark as a behaviour gate (make bench-gate).
#
# Runs all four workloads — repair and converge, which between them execute
# every layer, churn, the poison/unpoison cycle on its own, and traffic, the
# data plane's run path (a flow group's packets sent as one Flow.ForwardN)
# over longest-prefix match — at seed 1 for
# 8 host-seconds each and fails unless the two simulated metrics equal the
# committed values below to the last digit (they depend on the seed alone,
# so any difference is a behaviour change, not noise) and allocs_per_op is
# within 5 % of its committed value. A "-" there means printed, not judged:
# traffic allocates 1.5e-05 objects per packet, a handful per run, and 5 % of
# a handful is one object.
# ops_per_s is printed but never judged here: on a shared runner it is
# advisory; the paired driver run is what rules on speed.
#
# When a change moves these on purpose, re-record the table in the same
# commit and say why in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# The allocs_per_op column was re-recorded by PR 23 (2281.26, 3.723628 and
# 2743.61 before it): the loc-RIB became a table of pointer-free slots, so a
# changed best route allocates nothing until somebody reads it, adj-RIB-in
# arrays come out of slab chunks, an export path the arena already holds is
# found without being built, and topo.Customers/Providers/Peers — all of
# splice.Reach, once per repair — return lists computed at Build. The two
# simulated columns are as PR 21 left them. PR 24 added the traffic row when
# Lookup moved to the engine's one trie: the workload a slower Lookup would
# show in was the one the gate did not run. repair's allocs_per_op was
# re-recorded again (703.97 before) when the session failsafe watchdog began
# to be re-armed every monitor round with AtCall against a callback bound
# once, where it had built a closure per round: 60.5 fewer objects per op,
# all of them those closures (the radix-heap event queue that landed with
# it adds 0.1, its buckets growing during warm-up). The traffic row's two
# simulated columns were re-recorded by PR 30 (43.543850000000006 and
# 0.000054098797197316775 before it): the flow population became one count
# per vantage, and churn draws Binomial departures per vantage by geometric
# skipping, then uniform arrivals — the per-flow law, sampled from the
# stream differently, so later epochs see a different draw of the same
# population process (−0.09 % and −0.001 %). repair's allocs_per_op was
# re-recorded by PR 33 (643.60 before it): a held ping repeats its report
# while the data plane's stamp holds, and the atlas keeps an unchanged path
# once, so a re-confirmed traceroute or reverse traceroute allocates no
# hops slice and a HistoricalHops call no map. converge's and churn's
# allocs_per_op were re-recorded (0.79753 and 2127.05 before) when the path
# arena began to key a path by its first hop and the handle of the rest, one
# integer, so that a new path no longer allocates a string key. churn's had
# moved 4.9 %, which left its cell inside the bound by less than a tenth of
# a percent. converge's allocs_per_op was re-recorded again (0.532723
# before) when the adj-RIB-out became one id-major table per speaker: one
# growable array per speaker where each advertising session had grown its
# own, −4.55 %, inside the bound by less than half a point. converge's
# allocs_per_op was re-recorded once more (0.508483 before) when both
# adj-RIBs became one table of session slots per speaker: the per-prefix
# adj-RIB-in arrays and the slab chunks they were carved from are gone,
# −6.2 %. repair's allocs_per_op was re-recorded (397.90 before, −51 %)
# when the repair pipeline stopped building values nobody reads: the data
# plane reads a next hop where it built a *bgp.Route per lookup after a
# route change, isolation reads the atlas records in place and reuses its
# horizon map and hop buffer, the horizon's reverse traceroutes keep no
# hops, a pending repair is one value where it was a closure chain, and
# splice.Reach sizes its set and queues once. It was re-recorded again
# (196.05 before; 189.27 just before this, an atlas fix having moved it
# inside the bound) when the pending decision became the outage's own
# record, armed with AtCall against a callback bound once per session: one
# object per outage where there were two, about six per op. It was
# re-recorded once more (183.31 before, −63 %) when a walk-cache miss
# stopped allocating a 16-hop array of its own: a walk records its hops in
# one plane-owned buffer and a miss copies them into an exactly sized slice
# of an 8 KB slab chunk, one chunk per about 25 misses; with it, a
# plain one-shot traceroute hands back a prober-owned hop buffer, and
# splice.CanReach stops at its source without building Reach's set.
# churn's allocs_per_op was re-recorded (2021.93 before, −78 %) when a
# loc-RIB slot that flips back to the route it held before its last change
# began to hand back that route's *Route: Speaker.route keeps the Route the
# last rebuild displaced, so the sweep's Lookup after an unpoison builds
# nothing; what is left is mostly the first poison of each target inside
# the eight counted windows. repair's was re-recorded at the same time
# (68.51 before, −16 %): a held traceroute hands back the hops slice its
# last change displaced when the path flips back, so the atlas's refresh
# after an unpoison or a heal copies no hops.
# converge's allocs_per_op was re-recorded (0.477083 before, −89 %) when
# the path arena began to carve a new export path from an 8 KB slab chunk
# it owns, where each was an array of its own, and a flush began to read
# its session's pending set, now a bitset and its count, into one
# engine-owned buffer, where each session kept an id list that a burst
# re-grew. churn's was re-recorded with it (443.38 before, −21 %): the
# novel paths a poison's exploration interns come out of the same slab.
#
#        workload  sim_latency_s      updates_per_op      allocs_per_op
expect=("repair    382.1728918139953  1427.4567307692307  57.69"
        "converge  246.383297183625   1.946382            0.052771"
        "churn     198.1138306302584  3498.65             348.225"
        "traffic   43.503350000000005 0.0000540981811412644 -")

field() { # field <json> <metric>: the metric's value, as printed
	sed -n "s/.*\"$2\":{\"value\":\([-+0-9.eE]*\).*/\1/p" <<<"$1"
}

fail=0
for row in "${expect[@]}"; do
	read -r wl lat upd allocs <<<"$row"
	json=$(bash benchmark/run.sh --workload "$wl" --seed 1 --seconds 8 --trace 0 | tail -n 1)
	gotLat=$(field "$json" sim_latency_s)
	gotUpd=$(field "$json" updates_per_op)
	gotAllocs=$(field "$json" allocs_per_op)
	echo "bench-gate: $wl ops_per_s=$(field "$json" ops_per_s) (advisory) allocs_per_op=$gotAllocs sim_latency_s=$gotLat updates_per_op=$gotUpd"
	if [[ "$json" != *'"correct":true'* ]]; then
		echo "bench-gate: $wl: run reported failed operations" >&2
		fail=1
	fi
	if [[ "$gotLat" != "$lat" ]]; then
		echo "bench-gate: $wl: sim_latency_s $gotLat, committed $lat" >&2
		fail=1
	fi
	if [[ "$gotUpd" != "$upd" ]]; then
		echo "bench-gate: $wl: updates_per_op $gotUpd, committed $upd" >&2
		fail=1
	fi
	if [[ "$allocs" != - ]] && ! awk -v g="$gotAllocs" -v w="$allocs" 'BEGIN { d = g / w - 1; exit !(d < 0.05 && d > -0.05) }'; then
		echo "bench-gate: $wl: allocs_per_op $gotAllocs, committed $allocs (more than 5 % apart)" >&2
		fail=1
	fi
done
exit $fail
