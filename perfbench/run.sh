#!/usr/bin/env bash
# Builds the benchmark and cmd/insipsd from the checkout it is run in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload design-k25 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact, Go cache and
# scratch file stays under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/insipsd" repro/cmd/insipsd) >&2
exec "$out/perfbench" -insipsd "$out/insipsd" -work "$out/work" "$@"
