#!/usr/bin/env bash
# parity: byte-identity of every recorded output against another revision
# (make parity REV=<rev>).
#
# Builds lgexp, lgchaos, lifeguardd and the three examples twice — from REV
# and from the working tree — runs the same commands with each build, and
# compares every stdout and every -obs snapshot byte for byte. It prints one
# verdict line per command, followed for a command that differs by the first
# 40 lines of `diff -u` per differing output, and exits 1 on any difference.
# A change that claims to preserve behaviour passes it against its parent
# commit.
#
# REV is exported with `git archive` into a temporary directory, which is
# removed on exit; nothing is registered in the repository's .git, so an
# interrupted run leaves nothing behind to prune. Stderr is not compared:
# it carries wall-clock chatter ("suite completed in …").
set -euo pipefail
rev=${1:?usage: scripts/parity.sh <rev>}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/parity.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

mkdir -p "$tmp/base/src"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base/src"

# name | binary and arguments (@OBS@ is replaced by a per-side file path).
cmds=(
	"lgexp-seed1        | lgexp -seed 1"
	"lgexp-ablations    | lgexp -ablations -seed 1"
	"lgexp-seeds3       | lgexp -seed 1 -seeds 3"
	"lgexp-obs          | lgexp -seed 1 -obs @OBS@"
	"lgchaos-obs        | lgchaos -trials 4 -obs @OBS@"
	"lgchaos-faults     | lgchaos -list-faults"
	"lifeguardd         | lifeguardd -hours 6 -failures 4 -tenants 2"
	"quickstart         | quickstart"
	"casestudy          | casestudy"
	"selectivepoison    | selectivepoison"
)

for side in base head; do
	src="$tmp/base/src"
	[[ $side == head ]] && src=$root
	mkdir -p "$tmp/$side/bin"
	go build -C "$src" -o "$tmp/$side/bin/" ./cmd/lgexp ./cmd/lgchaos ./cmd/lifeguardd ./examples/...
	for c in "${cmds[@]}"; do
		name=$(echo "${c%%|*}" | xargs)
		read -ra argv <<<"${c#*|}"
		argv=("${argv[@]//@OBS@/$tmp/$side/$name.obs}")
		# The exit status is part of the output: a run that fails on one
		# side only is a difference.
		status=0
		"$tmp/$side/bin/${argv[0]}" "${argv[@]:1}" >"$tmp/$side/$name.out" 2>/dev/null || status=$?
		echo "exit $status" >>"$tmp/$side/$name.out"
	done
done

fail=0
for c in "${cmds[@]}"; do
	name=$(echo "${c%%|*}" | xargs)
	cmd=$(echo "${c#*|}" | xargs)
	differs=()
	for ext in out obs; do
		a="$tmp/base/$name.$ext" b="$tmp/head/$name.$ext"
		if [[ -e $a || -e $b ]] && ! cmp -s "$a" "$b"; then
			differs+=("$ext")
		fi
	done
	verdict=identical
	if ((${#differs[@]})); then
		verdict="DIFFERS (${differs[*]})"
		fail=1
	fi
	printf 'parity: %-16s %s\n' "$verdict" "${cmd//@OBS@/<file>}"
	for ext in "${differs[@]}"; do
		diff -u --label "$rev/$name.$ext" --label "working-tree/$name.$ext" \
			"$tmp/base/$name.$ext" "$tmp/head/$name.$ext" | head -n 40 || true
	done
done
exit $fail
