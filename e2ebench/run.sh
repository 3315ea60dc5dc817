#!/usr/bin/env bash
# Builds jossd and the e2ebench driver from this source tree, then runs
# the driver with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload fig8-sweep --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binaries, Go build cache) stays under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/jossd" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "run.sh: run from the root of a JOSS source tree (go.mod, cmd/jossd, e2ebench)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
# The checkout has no version-control metadata to stamp into binaries.
export GOFLAGS=-buildvcs=false
# Telemetry off: otherwise the go command forks a detached upload process
# that outlives this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/jossd" ./cmd/jossd
(cd e2ebench && go build -o "$out/e2ebench" .)
cd e2ebench
exec "$out/e2ebench" --jossd "$out/jossd" "$@"
