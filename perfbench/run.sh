#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload steady-block --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, the go command's own state and the span
# files all stay under .bench_build at the checkout root. The build fails,
# and so does this script, when the program's sources are not next to the
# benchmark.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
(
	cd "$root/perfbench"
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go" \
		GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
	go build -o "$out/perfbench" .
)
cd "$root"
# Run as a child rather than exec: the benchmark reads RUSAGE_CHILDREN for
# its worker processes, and exec would carry the compiler's usage over.
"$out/perfbench" --out "$out/spans" "$@"
