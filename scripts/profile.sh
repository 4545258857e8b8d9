#!/usr/bin/env bash
# profile: where one benchmark workload spends its CPU and its allocations,
# summed by package.
#
#   bash scripts/profile.sh <repair|converge|churn|traffic> [seconds]
#
# Copies benchmark/ to a temporary directory (benchmark/ itself is never
# edited), points the copy at this checkout, and adds a test there that
# builds the workload's world (warm-up window included), runs its window
# for the given host seconds (default 15) under the CPU profiler, with a
# heap profile of every 512th allocated byte taken before and after. It
# prints one table: each package's flat share of the CPU samples and of
# the objects and bytes allocated in the windows, which add to 100 % by
# construction. runtime holds the allocator and the collector (and the
# assembly routines pprof names without a package); lifeguard/benchmark is
# the benchmark's own harness. Left out are the profiler's own allocations,
# the heap sampler's own CPU and the checks a window runs off the stopwatch
# (see byPackage).
# Everything is seeded (seed 1), so allocation shares repeat run to run up
# to sampling; CPU shares move with the host.
#
# Set PROFILE_KEEP=<dir> to keep the two profiles (cpu.prof, and
# allocs.prof with allocs.base.prof) for `go tool pprof`.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
wl=${1:?usage: scripts/profile.sh <workload> [seconds]}
secs=${2:-15}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

cp -r benchmark "$tmp/bench"
(cd "$tmp/bench" && go mod edit -replace "lifeguard=$root")
cat >"$tmp/bench/profile_test.go" <<'EOF'
package main

import (
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"
)

func init() { runtime.MemProfileRate = 512 }

// writeAllocs writes the allocation profile as of now.
func writeAllocs(t *testing.T, path string) {
	runtime.GC() // the profile is as of the last collection
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		t.Fatal(err)
	}
}

func TestProfile(t *testing.T) {
	wl, ok := findWorkload(os.Getenv("PROFILE_WORKLOAD"))
	if !ok {
		t.Fatalf("no workload %q", os.Getenv("PROFILE_WORKLOAD"))
	}
	secs, err := strconv.ParseFloat(os.Getenv("PROFILE_SECONDS"), 64)
	if err != nil {
		t.Fatal(err)
	}
	dir := os.Getenv("PROFILE_DIR")
	w, err := wl.build(env{seed: 1, scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	writeAllocs(t, dir+"/allocs.base.prof")
	cpu, err := os.Create(dir + "/cpu.prof")
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		t.Fatal(err)
	}
	windows := 0
	for end := time.Now().Add(time.Duration(secs * float64(time.Second))); time.Now().Before(end); windows++ {
		w.window()
	}
	pprof.StopCPUProfile()
	cpu.Close()
	writeAllocs(t, dir+"/allocs.prof")
	t.Logf("%d windows", windows)
}
EOF

PROFILE_WORKLOAD=$wl PROFILE_SECONDS=$secs PROFILE_DIR=$tmp \
	go test -C "$tmp/bench" -run '^TestProfile$' -v -count=1 -timeout 0 . >"$tmp/test.out" 2>&1 ||
	{ cat "$tmp/test.out" >&2; exit 1; }

# byPackage <pprof flags...>: "<package> <share %>" per package: each
# sample's value goes to the package of its leaf frame (pprof's flat), a
# function's package being its name, type parameters and the "type:.eq."
# of generated functions cut off, up to the first dot after the last slash.
# Left out: what the profiler itself allocates; the heap sampler's CPU, the
# stack walk runtime.profilealloc makes at every sampled allocation (a
# tenth of churn's and repair's samples at MemProfileRate 512, billed to
# runtime, which an unprofiled run never pays); and the window's own
# unclocked checks — a ribDigest or runtime.GC that window calls directly,
# which the benchmark's stopwatch does not time either.
byPackage() {
	go tool pprof -traces "$@" 2>/dev/null | awk '
		function flush(   i, n, s, d, pkg) {
			if (nf == 0) return
			for (i = 1; i <= nf; i++) {
				if (fr[i] ~ /^runtime\/pprof\./ || fr[i] == "runtime.profilealloc") drop = 1
				if (i < nf && fr[i] ~ /^(lifeguard\/benchmark\.ribDigest|runtime\.GC)$/ &&
					fr[i+1] ~ /^lifeguard\/benchmark\.\(\*[a-zA-Z]+\)\.window$/) drop = 1
			}
			if (!drop) {
				n = fr[1]; sub(/\[.*$/, "", n); sub(/^type:\.[a-z]+\./, "", n)
				s = match(n, /\/[^\/]*$/) ? RSTART : 1
				d = index(substr(n, s), ".")
				pkg = d ? substr(n, 1, s + d - 2) : "runtime"
				sum[pkg] += val; total += val
			}
			nf = 0; drop = 0
		}
		/^-+\+-+$/ { flush(); body = 1; next }
		!body || /^ *bytes:/ { next }
		nf == 0 { val = $1; sub(/[a-zA-Z]+$/, "", val); fr[++nf] = $2; next }
		{ fr[++nf] = $1 }
		END { flush(); for (p in sum) printf "%s %.1f\n", p, 100 * sum[p] / total }'
}

# Kept before the table prints, so that a reader that closes the pipe
# early (| head) does not lose them.
if [[ -n "${PROFILE_KEEP:-}" ]]; then
	mkdir -p "$PROFILE_KEEP"
	cp "$tmp"/*.prof "$PROFILE_KEEP"/
fi

byPackage -unit=ms "$tmp/cpu.prof" >"$tmp/cpu.txt"
byPackage -sample_index=alloc_objects -base "$tmp/allocs.base.prof" "$tmp/allocs.prof" >"$tmp/objects.txt"
byPackage -sample_index=alloc_space -unit=B -base "$tmp/allocs.base.prof" "$tmp/allocs.prof" >"$tmp/space.txt"

echo "# $wl, seed 1, ${secs} s of windows ($(sed -n 's/.*profile_test.go:[0-9]*: //p' "$tmp/test.out")), $(go env GOOS)/$(go env GOARCH), nproc $(nproc)"
echo "| package | CPU % | objects % | bytes % |"
echo "|---|---:|---:|---:|"
awk 'FILENAME ~ /cpu\.txt$/ { c[$1] = $2 } FILENAME ~ /objects\.txt$/ { o[$1] = $2 } FILENAME ~ /space\.txt$/ { b[$1] = $2 }
	{ seen[$1] = 1 }
	END { for (p in seen) printf "%s\t%.1f\t%.1f\t%.1f\n", p, c[p], o[p], b[p] }' \
	"$tmp/cpu.txt" "$tmp/objects.txt" "$tmp/space.txt" |
	sort -t "$(printf '\t')" -k2,2gr -k3,3gr |
	awk -F '\t' '$2 + $3 + $4 >= 0.1 { printf "| `%s` | %s | %s | %s |\n", $1, $2, $3, $4 }'
