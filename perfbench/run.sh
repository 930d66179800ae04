#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload wire-10ms --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# temporary checkpoint directories, traced-run span files) stays under
# .bench_build/ at the root of the checkout. A tree without the
# repository's go.mod next to perfbench/ cannot build, and the script
# exits non-zero without printing a result.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$bench_dir/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
# The go command keeps its settings and telemetry under the user config
# directory; point it inside the checkout too.
export XDG_CONFIG_HOME="$out/config"

if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root; the benchmark builds the repository from source" >&2
	exit 2
fi

(cd "$bench_dir" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
