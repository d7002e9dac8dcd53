#!/usr/bin/env bash
# doc_refs.sh fails when README.md, DESIGN.md, EXPERIMENTS.md or the
# verify recipe (.claude/skills/verify/SKILL.md) names a `make <target>` the Makefile does not define, a cmd/<name> that is not
# a directory, an internal/, scripts/ or docs/ path that does not exist,
# a back-quoted `layer.metric` that BENCHMARK.json does not declare, a
# back-quoted `anycastmap_*` series no non-test Go file under internal/
# or cmd/ registers, a back-quoted `Test*`, `Benchmark*` or `Fuzz*` name
# no _test.go file defines (a trailing * matches a prefix), or a -flag on
# a `go run ./cmd/<name>` line that cmd/<name>/main.go does not define:
# the docs are where a deleted target, binary, file, metric, series, test
# or flag otherwise lives on. A make invocation counts when it opens a line (a shell block)
# or an inline code span; "make a note" in prose does not. Wired into CI
# as `make doc-refs`.
set -euo pipefail

cd "$(dirname "$0")/.."
docs=(README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md)
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

# A histogram's _bucket, _count and _sum samples are its own name; a name
# ending in _ is a family prefix ("the `anycastmap_route_` series").
series=$(find internal cmd -name '*.go' ! -name '*_test.go' -exec grep -hoE '"anycastmap_[a-z0-9_]+"' {} + | tr -d '"' | sort -u)
while IFS=: read -r file line match; do
    name=${match#\`}
    if [[ $name == *_ ]]; then
        continue
    fi
    name=$(sed -E 's/_(bucket|count|sum)$//' <<<"$name")
    if ! grep -qxF "$name" <<<"$series"; then
        echo "$file:$line: $name: no non-test Go file under internal/ or cmd/ registers this series" >&2
        bad=1
    fi
done < <(grep -noE '`anycastmap_[a-z0-9_]+' "${docs[@]}")

# A subtest's /name after the test is not checked.
tests=$(find . -name '*_test.go' -not -path './.git/*' -exec grep -hoE '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' {} + | cut -d' ' -f2 | sort -u)
while IFS=: read -r file line match; do
    name=${match#\`}
    if [[ $name == *\* ]]; then
        grep -q "^${name%\*}" <<<"$tests" && continue
    elif grep -qxF "$name" <<<"$tests"; then
        continue
    fi
    echo "$file:$line: $name: no _test.go file defines this test" >&2
    bad=1
done < <(grep -noE '`(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*\*?' "${docs[@]}")

# Flags are checked up to the end of the command (a pipe, a redirect, a
# comment or the closing back-quote); a continuation line is not read.
while IFS=: read -r file line match; do
    cmd=$(grep -oE 'cmd/[a-z0-9_-]+' <<<"$match")
    if [ ! -f "$cmd/main.go" ]; then
        continue
    fi
    defined=$(grep -ohE 'flag\.[A-Za-z0-9]+\("[a-z0-9-]+"' "$cmd/main.go" | cut -d'"' -f2)
    for f in $(grep -oE '(^|[[:space:]])--?[a-z][a-z0-9-]*' <<<"${match#*"$cmd"}" | sed -E 's/^[[:space:]]*-+//'); do
        if ! grep -qxF "$f" <<<"$defined"; then
            echo "$file:$line: go run ./$cmd -$f: $cmd/main.go defines no such flag" >&2
            bad=1
        fi
    done
done < <(grep -noE 'go run \./cmd/[a-z0-9_-]+[^`|;&>#]*' "${docs[@]}")

exit $bad
