#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Build output, the Go build cache,
# the toolchain's config and telemetry files and the run files all stay
# under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOTMPDIR=$build/tmp GOPATH=$build/gopath \
	XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache \
	GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -commit "$commit" -out "$build/results" "$@"
