#!/usr/bin/env bash
# cluster_smoke.sh is the multi-process leg of `make cluster-smoke`: a
# `census -listen` coordinator and three `census -agent` processes run a
# 150k-/24, four-round census over TCP loopback, and one agent is killed
# with SIGKILL once the coordinator has logged its first round. It passes
# only if the coordinator exits 0, -verify reports the fleet's result
# byte-identical to the in-process executor's, and the coordinator's
# `cluster:` line counts at least one lost agent.
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
BIN=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT

"$GO" build -o "$BIN" ./cmd/census

wait_log() { # file pattern attempts: poll every 50 ms
    local file=$1 pattern=$2 tries=${3:-2400}
    for _ in $(seq "$tries"); do
        if grep -q "$pattern" "$file"; then return 0; fi
        sleep 0.05
    done
    echo "FAIL: $file never logged \"$pattern\"" >&2
    cat "$file" >&2
    return 1
}

log=$BIN/coordinator.log
"$BIN/census" -listen 127.0.0.1:0 -min-agents 3 -unicast24s 150000 -censuses 4 -vps 24 \
    -verify >"$BIN/coordinator.out" 2>"$log" &
coord=$!
pids+=("$coord")
wait_log "$log" '^coordinator listening on '
addr=$(sed -n 's/^coordinator listening on \([^,]*\),.*/\1/p' "$log")

agents=()
for i in 1 2 3; do
    "$BIN/census" -agent -connect "$addr" -name "agent-$i" 2>"$BIN/agent-$i.log" &
    agents+=($!)
    pids+=($!)
done

wait_log "$log" '^census 1:'
{ kill -9 "${agents[0]}" && wait "${agents[0]}"; } 2>/dev/null || true
echo "killed agent-1 (pid ${agents[0]}) after census 1"

status=0
wait "$coord" || status=$?
cat "$log"
if [ "$status" -ne 0 ]; then
    echo "FAIL: coordinator exited $status" >&2
    exit 1
fi
grep -q '^verify: fleet census == in-process census' "$log" ||
    { echo "FAIL: -verify reported no byte-identity" >&2; exit 1; }
losses=$(sed -n 's/^cluster: [0-9]* joins, \([0-9]*\) losses.*/\1/p' "$log")
if [ "${losses:-0}" -lt 1 ]; then
    echo "FAIL: the cluster: line counts ${losses:-no} losses, want >= 1" >&2
    exit 1
fi
echo "cluster smoke (multi-process) passed: $losses agent lost, fleet == in-process"
