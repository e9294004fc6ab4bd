#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# (CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binary and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home"

# The go command keeps its caches and settings under HOME and the XDG
# directories; point them into the build directory so nothing is written
# outside the checkout. GOPROXY=off: the benchmark needs no module download.
(
	cd perfbench
	HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache \
		GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
		GOPROXY=off GOTOOLCHAIN=local GOFLAGS= \
		go build -o "$out/perfbench" .
)
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
