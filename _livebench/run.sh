#!/usr/bin/env bash
# Builds the live task-path benchmark from source and runs it, passing
# every argument through, e.g.
#
#   bash _livebench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build cache, binary, journal dirs and
# span files all stay under .bench_build/ in that root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/livebench"
mkdir -p "$out/tmp"
# Everything the go command writes stays in the checkout, its telemetry
# counters (kept under the user config dir) included, and it never
# reaches for the network: the module has no dependencies to fetch.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOENV=off GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/livebench" .)
exec "$out/livebench" --out "$out" "$@"
