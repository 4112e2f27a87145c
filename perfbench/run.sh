#!/usr/bin/env bash
# Builds the benchmark and the ceaffd daemon from the sources of the
# checkout it is run from, then runs one workload:
#
#   bash perfbench/run.sh --workload align --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output, the Go build cache and
# every file a run writes stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ceaffd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; no ceaff sources here" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/ceaffd" ./cmd/ceaffd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -ceaffd "$out/ceaffd" -work "$out/run" "$@"
