#!/usr/bin/env bash
# Builds the Soteria benchmark and the soteria binary from this checkout,
# then runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload scan-cold --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and scratch files stay under
# .bench_build in the checkout; result and span files go to .bench_out.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"
(
    cd "$root/perfbench"
    go build -o "$build/bin/perfbench" .
    go build -o "$build/bin/soteria" soteria/cmd/soteria
) >&2
exec "$build/bin/perfbench" -root "$root" -soteria "$build/bin/soteria" -work "$build/run" -out "$root/.bench_out" "$@"
