#!/usr/bin/env bash
# Builds photodtn-bench from this checkout and runs it with the given
# arguments. Run it from the repository root, e.g.
#
#   bash cmd/photodtn-bench/run.sh --workload sim-table1 --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the live peers' journals all stay under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$out/state"

(cd cmd/photodtn-bench && go build -o "$out/photodtn-bench" .)
exec "$out/photodtn-bench" -state-dir "$out/state" "$@"
