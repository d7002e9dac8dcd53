#!/usr/bin/env bash
# doc_refs.sh fails when README.md, DESIGN.md or EXPERIMENTS.md names a
# `make <target>` the Makefile does not define or a cmd/<name> that is
# not a directory: the docs are where a deleted target or binary
# otherwise lives on. A make invocation counts when it opens a line (a
# shell block) or an inline code span; "make a note" in prose does not.
# Wired into CI as `make doc-refs`.
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

exit $bad
