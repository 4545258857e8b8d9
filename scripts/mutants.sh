#!/usr/bin/env bash
# mutants: re-run the committed mutation-kill set (make mutants).
#
# A mutant is one small diff under <pkg>/testdata/mutants/, made with
# `git diff` on a scratch edit, with header lines above it (`git apply`
# skips the text before a diff). Each header names a check the mutant must
# fail:
#
#   # kill ./internal/bgp TestLocRIBMatchesOracle TestEngineMatchesSolve
#       every named top-level test of the package fails;
#   # chaos oracle-mismatch: lgexp -seed 1 -seeds 3 -exp chaos
#       the command (a program under cmd/), run with -obs, counts a
#       non-zero lifeguard_chaos_violations_total{invariant="oracle-mismatch"}.
#
# The working tree (git ls-files, untracked files included) is copied once
# into a temporary directory, removed on exit. On the clean copy every
# distinct header must pass first: each named test passes and prints its
# own "--- PASS: <name>" (so a renamed test is an error, not "no tests to
# run"), and each chaos command exits 0 with no violation of its
# invariant. Then each mutant is applied with `git apply`, its headers are
# run, and it is reverted with `git apply -R`. One line per mutant, with
# its wall time. The errors, each with its own message:
#
#   stale mutant: re-state it   the diff no longer applies
#   does not compile            a build the mutant breaks; never a kill
#   survived                    a named test passes, or a chaos count is 0
#
# The default run also fails, before it runs anything, when the mutant
# column of the kill matrix differs from the committed mutants: "matrix
# out of date: re-run `scripts/mutants.sh -matrix`".
#
# -matrix measures each test by what it kills and writes the result to
# testdata/mutants/matrix.tsv. For each mutant it runs one -test.v pass
# of every package its `# kill` lines name, of its own package and of the
# root package, and reads the top-level "--- FAIL:" and "--- PASS:"
# lines; a test with neither (a panic or a timeout ended the binary
# first) is run alone, and a failure or timeout there is a kill too. Each
# package runs clean first and must pass whole; its "--- PASS" tests are
# the ones measured. One sorted row per (mutant, package): the mutant's
# path, the package, and the tests that fail under the mutant ("-" for
# none), tab-separated. It ends with the tests, per package, that are no
# mutant's only killer. With mutants named, only their rows are
# re-measured.
#
# Usage: scripts/mutants.sh [-matrix] [mutant.diff ...]   (default: every mutant)
# Exits 1 on any error, 2 on a malformed mutant.
set -uo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
matrix=testdata/mutants/matrix.tsv
task=kill
if [[ ${1:-} == -matrix ]]; then
	task=matrix
	shift
fi
mutants=()
for m in "$@"; do
	m=$(realpath -m "$m")
	mutants+=("${m#"$root"/}")
done
cd "$root"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

mapfile -t committed < <(git ls-files --cached --others --exclude-standard \
	'testdata/mutants/*.diff' '*/testdata/mutants/*.diff' | sort -u)
if [[ $# -eq 0 ]]; then
	mutants=("${committed[@]}")
fi
[[ ${#mutants[@]} -gt 0 ]] || { echo "mutants: no mutants found"; exit 2; }
if [[ $task == kill && $# -eq 0 ]] &&
	! diff -q <(printf '%s\n' "${committed[@]}") \
		<(grep -v '^#' "$matrix" 2>/dev/null | cut -f1 | sort -u) >/dev/null; then
	echo "matrix out of date: re-run \`scripts/mutants.sh -matrix\`"
	exit 1
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
work=$tmp/tree
mkdir -p "$work" "$tmp/bin"
git ls-files -z --cached --others --exclude-standard | while IFS= read -r -d '' f; do
	[[ -e $f ]] && printf '%s\0' "$f"
done | tar --null -T - -cf - | tar -xf - -C "$work"
# The copy is not a repository: keep git from finding one above it.
export GIT_CEILING_DIRECTORIES=$tmp

now() { echo "${EPOCHREALTIME/,/.}"; }
since() { awk -v a="$1" -v b="$(now)" 'BEGIN { printf "%.1fs", b - a }'; }

# headers FILE prints the mutant's header lines, one per line, without "# ".
headers() {
	sed -n -e '/^diff --git /q' -e 's/^# \(kill\|chaos\) /\1 /p' "$1"
}

# violations SNAPSHOT INVARIANT sums lifeguard_chaos_violations_total for
# the invariant in an -obs snapshot (one JSON field per line; a label's
# value is a string, the series' value a number).
violations() {
	awk -v inv="$2" '
		/"name":/ { split($0, a, "\""); name = a[4]; lab = "" }
		/"value": "/ { split($0, a, "\""); lab = a[4]; next }
		/"value": [0-9]/ && name == "lifeguard_chaos_violations_total" && lab == inv {
			v = $0; sub(/.*"value": /, "", v); sub(/,.*/, "", v); n += v
		}
		END { print n + 0 }' "$1"
}

# build PKG BIN compiles the package's test binary from the copy.
build() {
	(cd "$work" && go test -c -ldflags="-s -w" -o "$2" "$1" 2>&1)
}

# run HEADER MODE runs one header in the copy; MODE is clean or mutant.
# It prints one line per error and returns 1 if there was any.
run() {
	local kind=${1%% *} rest=${1#* } mode=$2 errs=0
	if [[ $kind == kill ]]; then
		local pkg names name out bin
		read -r pkg names <<<"$rest"
		bin=$tmp/bin/${pkg//\//_}.test
		if [[ $mode == clean && -x $bin ]]; then
			: # the clean binary of an earlier header
		elif ! out=$(build "$pkg" "$bin"); then
			echo "does not compile: $pkg"
			echo "$out" | head -5 | sed 's/^/    /'
			return 1
		fi
		for name in $names; do
			out=$(cd "$work/$pkg" && timeout 300 "$bin" -test.run "^$name\$" \
				-test.count=1 -test.v -test.timeout=240s 2>&1)
			local status=$?
			if [[ $mode == clean ]]; then
				if [[ $status -ne 0 ]]; then
					echo "clean run fails: $pkg $name"
					echo "$out" | grep -m5 -e '--- FAIL' -e 'panic:' -e '_test.go:' | sed 's/^/    /'
					errs=1
				elif ! grep -q -- "^--- PASS: $name (" <<<"$out"; then
					echo "no such test: $pkg $name"
					errs=1
				fi
			elif [[ $status -eq 0 ]]; then
				echo "survived: $pkg $name passes"
				errs=1
			fi
		done
	elif [[ $kind == chaos ]]; then
		local inv=${rest%%:*} argv
		read -ra argv <<<"${rest#*:}"
		if [[ -z $inv || ${#argv[@]} -eq 0 || ! -d $work/cmd/${argv[0]} ]]; then
			echo "bad chaos line: $1"
			return 2
		fi
		if ! out=$(cd "$work" && go build -ldflags="-s -w" -o "$tmp/bin/${argv[0]}" "./cmd/${argv[0]}" 2>&1); then
			echo "does not compile: ./cmd/${argv[0]}"
			echo "$out" | head -5 | sed 's/^/    /'
			return 1
		fi
		rm -f "$tmp/obs.json"
		(cd "$work" && timeout 300 "$tmp/bin/${argv[0]}" "${argv[@]:1}" -obs "$tmp/obs.json" >/dev/null 2>&1)
		local status=$? n=0
		[[ -f $tmp/obs.json ]] && n=$(violations "$tmp/obs.json" "$inv")
		if [[ $mode == clean ]]; then
			if [[ $n -ne 0 ]]; then
				echo "clean run reports $n $inv violations: ${argv[*]}"
				errs=1
			elif [[ $status -ne 0 || ! -f $tmp/obs.json ]]; then
				echo "clean run fails (exit $status): ${argv[*]}"
				errs=1
			fi
		elif [[ $n -eq 0 ]]; then
			echo "survived: ${argv[*]} counts no $inv violation (exit $status)"
			errs=1
		fi
	fi
	return $errs
}

for m in "${mutants[@]}"; do
	if [[ ! -f $m ]] || ! headers "$m" | grep -q .; then
		echo "mutants: $m: no such file, or no '# kill' or '# chaos' header"
		exit 2
	fi
done

fail=0
start=$(now)

if [[ $task == matrix ]]; then
	# pkgs FILE prints the packages the mutant's kill lines name, its own
	# package (the one whose testdata holds it) and the root.
	pkgs() {
		local own=${1%testdata/mutants/*}
		{
			echo .
			echo "./${own%/}"
			headers "$1" | awk '$1 == "kill" { print $2 }'
		} | sed 's|^\./$|.|' | LC_ALL=C sort -u
	}
	# suite PKG BIN runs the package's whole test binary once, verbose.
	suite() (
		cd "$work/$1" && timeout 300 "$2" -test.count=1 -test.v -test.timeout=240s 2>&1
	)
	# killers PKG BIN prints the package's measured tests that fail under
	# the applied mutant, sorted on one line, or "-".
	killers() {
		local -A seen=()
		local st name k=()
		while read -r st name; do
			seen[$name]=$st
		done < <(suite "$1" "$2" | sed -n 's/^--- \(PASS\|FAIL\|SKIP\): \([^ ]*\) .*/\1 \2/p')
		for name in ${tests[$1]}; do
			case ${seen[$name]:-} in
			FAIL) k+=("$name") ;;
			PASS | SKIP) ;;
			*) # the binary ended before this test reported: run it alone
				(cd "$work/$1" && timeout 300 "$2" -test.run "^$name\$" -test.count=1 \
					-test.timeout=240s >/dev/null 2>&1) || k+=("$name") ;;
			esac
		done
		if [[ ${#k[@]} -eq 0 ]]; then
			echo -
		else
			printf '%s\n' "${k[@]}" | LC_ALL=C sort | paste -sd ' '
		fi
	}

	declare -A tests=()
	mapfile -t all < <(for m in "${mutants[@]}"; do pkgs "$m"; done | LC_ALL=C sort -u)
	for p in "${all[@]}"; do
		t0=$(now)
		bin=$tmp/bin/matrix-${p//[.\/]/_}.test
		if ! out=$(build "$p" "$bin") ||
			! out=$(suite "$p" "$bin"); then
			printf 'ERROR  %6s  %s\n  clean run fails\n' "$(since "$t0")" "$p"
			echo "$out" | grep -m5 -e '--- FAIL' -e 'panic:' -e '_test.go:' -e '\.go:' | sed 's/^/    /'
			exit 1
		fi
		tests[$p]=$(sed -n 's/^--- PASS: \([^ ]*\) .*/\1/p' <<<"$out" | LC_ALL=C sort | paste -sd ' ')
		printf 'clean  %6s  %s: %d tests\n' "$(since "$t0")" "$p" "$(wc -w <<<"${tests[$p]}")"
	done

	: >"$tmp/rows"
	for m in "${mutants[@]}"; do
		abs=$(realpath "$m")
		if ! (cd "$work" && git apply "$abs" 2>/dev/null); then
			printf 'ERROR  %s\n  stale mutant: re-state it (git apply fails)\n' "$m"
			fail=1
			continue
		fi
		for p in $(pkgs "$m"); do
			t0=$(now)
			bin=$tmp/bin/matrix-${p//[.\/]/_}.test
			if ! out=$(build "$p" "$bin"); then
				printf 'ERROR  %6s  %s %s\n  does not compile\n' "$(since "$t0")" "$m" "$p"
				fail=1
				continue
			fi
			k=$(killers "$p" "$bin")
			printf '%s\t%s\t%s\n' "$m" "$p" "$k" >>"$tmp/rows"
			printf 'row    %6s  %s %s: %s\n' "$(since "$t0")" "$m" "$p" "$k"
		done
		if ! (cd "$work" && git apply -R "$abs"); then
			echo "mutants: $m: git apply -R failed; the copy is no longer clean"
			exit 1
		fi
	done
	if [[ $fail -ne 0 ]]; then
		echo "mutants: $matrix not written"
		exit 1
	fi

	# Rows of mutants not re-measured stay, when mutants were named.
	if [[ $# -gt 0 && -f $matrix ]]; then
		grep -v '^#' "$matrix" | awk -F'\t' 'NR == FNR { named[$0]; next } !($1 in named)' \
			<(printf '%s\n' "${mutants[@]}") - >>"$tmp/rows"
	fi
	{
		printf '# mutant\tpackage\ttests that fail under it (scripts/mutants.sh -matrix)\n'
		LC_ALL=C sort "$tmp/rows"
	} >"$matrix"

	# A test is a mutant's only killer when no other test, in any package,
	# fails under it.
	only=$(awk -F'\t' '!/^#/ && $3 != "-" {
			n = split($3, t, " ")
			for (i = 1; i <= n; i++) { k[$1] = $2 ":" t[i]; c[$1]++ }
		}
		END { for (m in c) if (c[m] == 1) print k[m] }' "$matrix" | LC_ALL=C sort -u)
	for p in "${all[@]}"; do
		none=()
		for t in ${tests[$p]}; do
			grep -qxF "$p:$t" <<<"$only" || none+=("$t")
		done
		echo "only killer of no mutant in $p (${#none[@]} of $(wc -w <<<"${tests[$p]}")): ${none[*]}"
	done
	killed=$(awk -F'\t' '!/^#/ && $3 != "-" { print $1 }' "$matrix" | sort -u | wc -l)
	total=$(grep -vc '^#' "$matrix" | tr -d ' ')
	echo "mutants: $matrix: $total rows; $killed of ${#committed[@]} mutants fail some test; $(since "$start")"
	exit 0
fi

mapfile -t clean < <(for m in "${mutants[@]}"; do
	headers "$m" | while read -r kind rest; do
		if [[ $kind == kill ]]; then
			read -ra w <<<"$rest"
			for t in "${w[@]:1}"; do echo "kill ${w[0]} $t"; done
		else
			echo "$kind $rest"
		fi
	done
done | sort -u)
for h in "${clean[@]}"; do
	t0=$(now)
	if out=$(run "$h" clean); then
		printf 'clean  %6s  %s\n' "$(since "$t0")" "$h"
	else
		printf 'ERROR  %6s  %s\n' "$(since "$t0")" "$h"
		echo "$out" | sed 's/^/  /'
		fail=1
	fi
done
if [[ $fail -ne 0 ]]; then
	echo "mutants: the clean tree fails a header; no mutant was run"
	exit 1
fi

killed=0
for m in "${mutants[@]}"; do
	t0=$(now)
	mapfile -t hs < <(headers "$m")
	abs=$(realpath "$m")
	if ! (cd "$work" && git apply "$abs" 2>/dev/null); then
		printf 'ERROR  %6s  %s\n  stale mutant: re-state it (git apply fails)\n' "$(since "$t0")" "$m"
		fail=1
		continue
	fi
	errs=""
	for h in "${hs[@]}"; do
		out=$(run "$h" mutant) || errs+="$out"$'\n'
	done
	if ! (cd "$work" && git apply -R "$abs"); then
		echo "mutants: $m: git apply -R failed; the copy is no longer clean"
		exit 1
	fi
	if [[ -z $errs ]]; then
		killed=$((killed + 1))
		printf 'killed %6s  %s\n' "$(since "$t0")" "$m"
	else
		printf 'ERROR  %6s  %s\n' "$(since "$t0")" "$m"
		printf '%s' "$errs" | sed 's/^/  /'
		fail=1
	fi
done
echo "mutants: $killed of ${#mutants[@]} killed in $(since "$start")"
exit $fail
