#!/usr/bin/env bash
# cluster_smoke.sh is `make cluster-smoke`: the distributed control plane
# end to end, in three legs.
#
# First, `census -local 4`: four in-process agents over net.Pipe, every
# agent's connection severed after 25 streamed rows frames and respawned,
# a quarter of the VPs crashing and taking their agent down with them
# (-exit-on-crash). The ~3.5k-target census is one span narrower than
# -span-targets, so leases carry batches of units: the leg passes only if
# -verify reports the fleet's result byte-identical to the zero-fault
# in-process executor's and the `cluster:` line counts more units than
# leases.
#
# Second, `census -local 2` over one-target units with half the VPs
# crashing: a crash lands inside every run, one probe long included, so
# the leg passes only if the `cluster:` line counts re-leases and -verify
# reports byte-identity.
#
# Then a `census -listen` coordinator and three `census -agent` processes
# run a 150k-/24, four-round census over TCP loopback, and one agent is
# killed with SIGKILL once the coordinator has logged its first round. It
# passes only if the coordinator exits 0, -verify reports the fleet's
# result byte-identical to the in-process executor's, and the
# coordinator's `cluster:` line counts at least one lost agent.
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

local=$BIN/local.log
if ! "$BIN/census" -local 4 -unicast24s 6000 -censuses 3 -vps 24 \
    -retries 50 -retry-backoff 1ms -churn-every 25 \
    -fault-crash 0.25 -exit-on-crash -verify >"$BIN/local.out" 2>"$local"; then
    cat "$local" >&2
    echo "FAIL: census -local 4 exited non-zero" >&2
    exit 1
fi
cat "$local"
grep -q '^verify: fleet census == in-process census' "$local" ||
    { echo "FAIL: -verify reported no byte-identity" >&2; exit 1; }
read -r leases units < <(sed -n 's/^cluster: .*, \([0-9]*\) leases of \([0-9]*\) units .*/\1 \2/p' "$local")
if [ "${units:-0}" -le "${leases:-0}" ]; then
    echo "FAIL: the cluster: line counts ${units:-no} units in ${leases:-no} leases, want more units than leases" >&2
    exit 1
fi
echo "cluster smoke (in-process) passed: $units units in $leases leases, fleet == in-process"

crash=$BIN/crash.log
if ! "$BIN/census" -local 2 -unicast24s 1000 -censuses 1 -vps 12 -span-targets 1 \
    -fault-crash 0.5 -retry-backoff 1ms -verify >"$BIN/crash.out" 2>"$crash"; then
    cat "$crash" >&2
    echo "FAIL: census -local 2 -span-targets 1 exited non-zero" >&2
    exit 1
fi
grep -q '^verify: fleet census == in-process census' "$crash" ||
    { cat "$crash" >&2; echo "FAIL: -verify reported no byte-identity at -span-targets 1" >&2; exit 1; }
releases=$(sed -n 's/^cluster: .*(\([0-9]*\) re-leases,.*/\1/p' "$crash")
if [ "${releases:-0}" -eq 0 ]; then
    grep '^cluster: ' "$crash" >&2
    echo "FAIL: no one-target unit crashed (${releases:-no} re-leases)" >&2
    exit 1
fi
echo "cluster smoke (one-target units) passed: $releases re-leases, fleet == in-process"

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
