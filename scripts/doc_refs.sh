#!/usr/bin/env bash
# doc_refs.sh fails when README.md, DESIGN.md or EXPERIMENTS.md names a
# `make <target>` the Makefile does not define, a cmd/<name> that is not
# a directory, an internal/, scripts/ or docs/ path that does not exist,
# or a back-quoted `layer.metric` that BENCHMARK.json does not declare:
# the docs are where a deleted target, binary, file or metric otherwise
# lives on. A make invocation counts when it opens a line (a shell block)
# or an inline code span; "make a note" in prose does not. Wired into CI
# as `make doc-refs`.
set -euo pipefail

cd "$(dirname "$0")/.."
docs=(README.md DESIGN.md EXPERIMENTS.md)
bad=0

targets=$(grep -oE '^[a-z][a-z0-9-]*:' Makefile | tr -d ':')
while IFS=: read -r file line match; do
    for t in ${match#*make }; do
        if ! grep -qx "$t" <<<"$targets"; then
            echo "$file:$line: make $t: no such target in Makefile" >&2
            bad=1
        fi
    done
done < <(grep -noE '(^|`)make( [a-z][a-z0-9-]*)+' "${docs[@]}")

while IFS=: read -r file line match; do
    if [ ! -d "$match" ]; then
        echo "$file:$line: $match is not a directory" >&2
        bad=1
    fi
done < <(grep -noE '\bcmd/[a-z][a-z0-9_-]*' "${docs[@]}")

while IFS=: read -r file line match; do
    path=$(sed 's/[.,]*$//' <<<"$match") # a sentence's punctuation, `internal/...`
    if [ ! -e "$path" ]; then
        echo "$file:$line: $path does not exist" >&2
        bad=1
    fi
done < <(grep -noE '\b(internal|scripts|docs)/[A-Za-z0-9_./-]+' "${docs[@]}")

# The manifest is only read. A layer is whatever prefixes a declared
# per-layer metric; `runtime.` is also the Go package a profile table
# quotes, so a runtime name without an underscore (no declared one lacks
# it) is taken for a Go symbol, not a metric.
metrics=$(grep -oE '"name": "[a-z0-9_.]+"' BENCHMARK.json | cut -d'"' -f4)
layers=$(grep -F . <<<"$metrics" | cut -d. -f1 | sort -u | paste -sd'|')
while IFS=: read -r file line match; do
    name=${match//\`/}
    if [[ $name == runtime.* && $name != *_* ]]; then
        continue
    fi
    if ! grep -qxF "$name" <<<"$metrics"; then
        echo "$file:$line: $name: BENCHMARK.json declares no such metric" >&2
        bad=1
    fi
done < <(grep -noE "\`($layers)\.[a-z][a-z0-9_]*\`" "${docs[@]}")

exit $bad
