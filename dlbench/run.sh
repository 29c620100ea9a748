#!/usr/bin/env bash
# Builds the DATALINK commit-path benchmark from source and runs it.
#
#   bash dlbench/run.sh --workload link_mem --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artefact (Go build cache,
# binary, scratch data directories, span dumps) stays under .bench_build/
# in the current directory; nothing is fetched from the network.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/dlbench/go.mod" ]]; then
	echo "dlbench: run from the repository root (go.mod, internal/ and dlbench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root/dlbench" && go build -o "$out/dlbench" .)
exec "$out/dlbench" -root "$root" "$@"
