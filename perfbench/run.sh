#!/usr/bin/env bash
# Builds the MUVE benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload flights-scan --seed 1 --seconds 12 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files) stays
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the root of a MUVE checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

commit=unknown
if [[ -d "$root/.git" ]] && command -v git >/dev/null; then
	commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --commit "$commit" --spans-dir "$out/spans" "$@"
