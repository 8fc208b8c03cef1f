#!/bin/sh
# Builds the benchmark and the programs it drives (ogwsd, ogws-worker)
# from the checkout's source, then runs one workload:
#
#	perfbench/run.sh --workload service --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the toolchain writes —
# build cache, binaries, stores, traces — stays under .bench_build.
set -eu

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (no go.mod / internal here)" >&2
	exit 2
fi

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp" "$build/work"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

# Rebuild only when a Go source or module file changed since the last
# build, so repeated runs do not pay the link step.
stamp="$build/bin/.stamp"
if [ ! -f "$stamp" ] || [ -n "$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -newer "$stamp" -print | head -n1)" ]; then
	go build -o "$build/bin/ogwsd" ./cmd/ogwsd >&2
	go build -o "$build/bin/ogws-worker" ./cmd/ogws-worker >&2
	(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
	touch "$stamp"
fi

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
