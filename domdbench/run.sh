#!/usr/bin/env bash
# DoMD serving benchmark. Run from the root of a domd checkout:
#
#   bash domdbench/run.sh --workload fleet-scan --seed 1 --seconds 21 --trace 0
#
# Builds cmd/domd and the benchmark's drivers from the checkout's source
# into .bench_build/ (the Go build cache included, so nothing is written
# outside the checkout), then runs the driver. The last line of standard
# output is the JSON result; domdbench/README.md explains the rest.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/domd || ! -f domdbench/go.mod ]]; then
	echo "domdbench: run from the root of a domd checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/domd" ./cmd/domd >&2
(cd domdbench && go build -o "$out/bin/bench" ./cmd/bench) >&2
# The traced replay links the server's internal packages. If a refactor
# breaks its build, only --trace 1 runs fail; the end-to-end run stands.
if ! (cd domdbench && go build -o "$out/bin/tracer" ./cmd/tracer) 2>"$out/tracer-build.log"; then
	rm -f "$out/bin/tracer"
fi
exec "$out/bin/bench" -bin "$out/bin" -work "$out/work" "$@"
