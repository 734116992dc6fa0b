#!/usr/bin/env bash
# Builds hfserved and the benchmark from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binaries, Go build cache, temp files) stays
# under .bench_build in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/hfserved || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod or cmd/hfserved not found)" >&2
	exit 2
fi

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly

# The version string: git describe inside a clone, else a digest of the
# Go sources and module files, so every result names the code it measured.
version=$(git describe --always --dirty 2>/dev/null || true)
if [[ -z "$version" ]]; then
	version="src-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name 'go.mod' \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
fi
ldflags="-X turnup/internal/version.override=$version"

go build -buildvcs=false -ldflags "$ldflags" -o "$out/bin/hfserved" ./cmd/hfserved
(cd perfbench && go build -buildvcs=false -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -bin "$out/bin" -version "$version" -spans "$out/spans.txt" "$@"
