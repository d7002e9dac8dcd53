#!/usr/bin/env bash
# receipt.sh prints the three numbers a change that deletes code quotes as
# its receipt: the commands under cmd/, the command-line flags the non-test
# Go code defines, and the raw line count of the non-test Go files outside
# bench/ (the benchmark module) and hidden directories (build caches).
# Run it before and after the change and quote both. Wired into CI as
# `make receipt`, so it cannot rot.
set -euo pipefail

cd "$(dirname "$0")/.."

gofiles() {
    find . \( -path ./bench -o -name '.?*' \) -prune -o \
        -type f -name '*.go' ! -name '*_test.go' -print0
}

commands=$(find cmd -mindepth 1 -maxdepth 1 -type d | wc -l)
defs='Bool|BoolFunc|BoolVar|Duration|DurationVar|Float64|Float64Var|Func|Int|Int64|Int64Var|IntVar|String|StringVar|TextVar|Uint|Uint64|Uint64Var|UintVar|Var'
flags=$(gofiles | xargs -0 cat | { grep -oE "\bflag\.($defs)\(" || true; } | wc -l)
lines=$(gofiles | xargs -0 cat | wc -l)

printf 'commands %d\nflags %d\nnon-test Go lines outside bench/ %d\n' \
    "$commands" "$flags" "$lines"
