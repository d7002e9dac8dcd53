#!/usr/bin/env bash
# metrics_smoke.sh runs the producer/server split end to end against tiny
# worlds: `census -snapshot F` writes the map, anycastd (with its -dns
# routing front-end) boots from F, reloads it when a second census
# replaces it, and keeps serving when garbage lands on it, which a third
# census then refuses to overwrite. The first census also saves its
# per-VP record files, and `igreedy -runs` must call a /24 the browser
# lists ANYCAST from them; a second -save into that directory must be
# refused before the world is built. It asserts that
# GET /metrics serves Prometheus text exposition carrying every required
# series family - store, reload, route and HTTP on anycastd; probe,
# census and cluster on a `census -local 2` coordinator - that the
# runtime's profiles answer under /debug/pprof/ on both admin listeners
# and nowhere on anycastd's public one, and that the census browser
# answers on anycastd's admin listener only. It is the end-to-end form of
# TestMetricsExposition, wired into CI as `make metrics-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
ANYCASTD_ADDR=${ANYCASTD_ADDR:-127.0.0.1:18090}
ANYCASTD_ADMIN=${ANYCASTD_ADMIN:-127.0.0.1:18092}
ANYCASTD_DNS=${ANYCASTD_DNS:-127.0.0.1:15300}
CENSUS_ADDR=${CENSUS_ADDR:-127.0.0.1:18091}
BIN=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT

"$GO" build -o "$BIN" ./cmd/anycastd ./cmd/census ./cmd/igreedy

wait_http() { # url attempts
    local url=$1 tries=${2:-100}
    for _ in $(seq "$tries"); do
        if curl -fsS "$url" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    echo "FAIL: $url never became reachable" >&2
    return 1
}

require_status() { # url status
    local got
    got=$(curl -sS -o /dev/null -w '%{http_code}' "$1")
    if [ "$got" != "$2" ]; then
        echo "FAIL: GET $1 answered $got, want $2" >&2
        return 1
    fi
}

require_series() { # file series...
    local file=$1
    shift
    for series in "$@"; do
        if ! grep -q "^$series" "$file"; then
            echo "FAIL: $file is missing series $series" >&2
            return 1
        fi
    done
}

json_field() { # url field
    curl -fsS "$1" | grep -o "\"$2\":[^,}]*" | cut -d: -f2- | tr -d '"'
}

wait_field() { # url field value
    for _ in $(seq 100); do
        if [ "$(json_field "$1" "$2")" = "$3" ]; then return 0; fi
        sleep 0.2
    done
    echo "FAIL: $1 never reported $2=$3 (last: $(json_field "$1" "$2"))" >&2
    return 1
}

echo "== census -snapshot -> anycastd =="
snap=$BIN/map.snap
runs=$BIN/runs
"$BIN/census" -unicast24s 800 -vps 40 -censuses 1 -snapshot "$snap" -save "$runs" >/dev/null 2>"$BIN/census1.log"
detected=$(sed -n 's/^combined: \([0-9]*\) anycast.*/\1/p' "$BIN/census1.log")
"$BIN/anycastd" -addr "$ANYCASTD_ADDR" -admin "$ANYCASTD_ADMIN" -dns "$ANYCASTD_DNS" \
    -snapshot-file "$snap" &
pids+=($!)
wait_http "http://$ANYCASTD_ADDR/healthz" 150
served=$(json_field "http://$ANYCASTD_ADDR/v1/snapshot" anycast_prefixes)
if [ -z "$detected" ] || [ "$served" != "$detected" ]; then
    echo "FAIL: anycastd serves $served anycast /24s, census logged ${detected:-nothing}" >&2
    exit 1
fi
echo "ok: anycastd serves the census's $served anycast /24s"

echo "== anycastd /metrics =="
scrape=$BIN/anycastd.metrics
# A lookup first, so the HTTP series have non-registration traffic.
curl -fsS "http://$ANYCASTD_ADDR/v1/lookup?ip=8.8.8.8" >/dev/null
curl -fsS "http://$ANYCASTD_ADDR/metrics" -o "$scrape"
ct=$(curl -fsS -o /dev/null -w '%{content_type}' "http://$ANYCASTD_ADDR/metrics")
case "$ct" in
text/plain*version=0.0.4*) ;;
*)
    echo "FAIL: anycastd /metrics content type: $ct" >&2
    exit 1
    ;;
esac
require_series "$scrape" \
    anycastmap_store_snapshot_version \
    anycastmap_store_snapshot_age_seconds \
    anycastmap_store_lookups_total \
    anycastmap_reload_total \
    anycastmap_reload_rejected_total \
    anycastmap_route_queries_total \
    anycastmap_route_answers_total \
    anycastmap_route_answer_seconds_count \
    'anycastmap_http_requests_total{endpoint="lookup"}'
grep -q '^anycastmap_reload_total 1$' "$scrape" ||
    { echo "FAIL: anycastd's boot load not counted" >&2; exit 1; }
if grep -Eq '^anycastmap_(refresh|census|probe)_' "$scrape"; then
    echo "FAIL: anycastd, a pure server, scrapes census series" >&2
    exit 1
fi
echo "ok: anycastd serves all required series"
require_status "http://$ANYCASTD_ADMIN/debug/pprof/heap?debug=1" 200
require_status "http://$ANYCASTD_ADMIN/metrics" 200
require_status "http://$ANYCASTD_ADDR/debug/pprof/heap?debug=1" 404
echo "ok: anycastd serves profiles on its admin listener only"
require_status "http://$ANYCASTD_ADMIN/" 200
require_status "http://$ANYCASTD_ADMIN/api/findings" 200
require_status "http://$ANYCASTD_ADDR/api/findings" 404
require_status "http://$ANYCASTD_ADMIN/healthz" 404
echo "ok: anycastd serves the census browser on its admin listener only, and one /healthz"

echo "== census -save -> igreedy -runs =="
prefix=$(json_field "http://$ANYCASTD_ADMIN/api/findings" prefix | sed -n '1{s/[[:space:]]//g;p;}')
[ -n "$prefix" ] || { echo "FAIL: /api/findings lists no anycast /24" >&2; exit 1; }
"$BIN/igreedy" -runs "$runs" -prefix "$prefix" 2>/dev/null | grep -q '^ANYCAST' ||
    { echo "FAIL: igreedy -runs does not call $prefix, which anycastd serves as anycast, ANYCAST" >&2; exit 1; }
ls "$runs" >"$BIN/runs.before"
if "$BIN/census" -unicast24s 800 -vps 40 -censuses 1 -save "$runs" >/dev/null 2>"$BIN/census-save.log"; then
    echo "FAIL: census -save wrote into a directory that is not empty" >&2
    exit 1
fi
grep -q '^world:' "$BIN/census-save.log" &&
    { echo "FAIL: census built its world before refusing the -save directory" >&2; exit 1; }
ls "$runs" | cmp -s - "$BIN/runs.before" ||
    { echo "FAIL: census -save changed a directory it refused" >&2; exit 1; }
echo "ok: igreedy -runs calls $prefix ANYCAST; a second -save into $(basename "$runs") is refused"

echo "== anycastd reloads =="
"$BIN/census" -unicast24s 800 -vps 40 -censuses 1 -snapshot "$snap" >/dev/null 2>"$BIN/census2.log"
wait_field "http://$ANYCASTD_ADDR/v1/snapshot" version 2
wait_field "http://$ANYCASTD_ADDR/v1/snapshot" census_round 2
echo "ok: a second census reloads as version 2, census round 2"
printf 'not a snapshot' >"$snap" # non-atomic, unlike census's rename
wait_field "http://$ANYCASTD_ADDR/healthz" status degraded
require_status "http://$ANYCASTD_ADDR/healthz" 200
wait_field "http://$ANYCASTD_ADDR/v1/snapshot" version 2
wait_field "http://$ANYCASTD_ADDR/v1/lookup?ip=8.8.8.8" snapshot_version 2
curl -fsS "http://$ANYCASTD_ADDR/metrics" -o "$scrape"
grep -q '^anycastmap_reload_rejected_total 1$' "$scrape" ||
    { echo "FAIL: the rejected file was not counted once" >&2; exit 1; }
echo "ok: garbage over the file turns /healthz degraded; version 2 keeps serving"
if "$BIN/census" -unicast24s 800 -vps 40 -censuses 1 -snapshot "$snap" >/dev/null 2>"$BIN/census3.log"; then
    echo "FAIL: census -snapshot overwrote a file that is not a snapshot" >&2
    exit 1
fi
[ "$(cat "$snap")" = 'not a snapshot' ] ||
    { echo "FAIL: census -snapshot changed a file it refused" >&2; exit 1; }
grep -q '^world:' "$BIN/census3.log" &&
    { echo "FAIL: census built its world before refusing the file" >&2; exit 1; }
echo "ok: census -snapshot refuses a file that is not a snapshot and leaves it alone"
# Every other value a census flag cannot mean is refused by
# cmd/census TestRefusesFlagValues.

echo "== census -local /metrics =="
# The coordinator exits when its rounds are done, so the census must
# outlast the poll below: at 3,000 /24s it finished in 150 ms, before the
# first scrape could land.
"$BIN/census" -local 2 -metrics "$CENSUS_ADDR" -unicast24s 150000 -censuses 4 -vps 24 &
pids+=($!)
wait_http "http://$CENSUS_ADDR/metrics" 150

scrape=$BIN/census.metrics
# Each agent plans a span once per round, so once a round is under way the
# plans trail the runs (24 VPs probe every span); the blacklist pass before
# the first round plans once per run, so scrape until the runs pull ahead.
counter() { # series file
    awk -v s="$1" '$1 == s { print $2 }' "$2"
}
for _ in $(seq 100); do
    curl -fsS "http://$CENSUS_ADDR/metrics" -o "$scrape"
    runs=$(counter anycastmap_probe_runs_total "$scrape")
    plans=$(counter anycastmap_probe_plans_total "$scrape")
    if [ "${plans:-0}" -gt 0 ] && [ "${plans:-0}" -lt "${runs:-0}" ]; then break; fi
    sleep 0.2
done
require_series "$scrape" \
    anycastmap_probe_runs_total \
    anycastmap_probe_plans_total \
    anycastmap_probe_probes_sent_total \
    anycastmap_probe_span_seconds_count \
    anycastmap_probe_spans_in_flight \
    anycastmap_census_rounds_folded_total \
    anycastmap_census_analyze_seconds_count \
    anycastmap_census_analyses_total \
    anycastmap_census_witness_decided_total \
    anycastmap_census_split_scanned_total \
    anycastmap_census_pair_tests_total \
    anycastmap_cluster_agents_joined_total \
    anycastmap_cluster_leases_total \
    anycastmap_cluster_shard_fold_seconds_count
if [ "$plans" -le 0 ] || [ "$plans" -ge "$runs" ]; then
    echo "FAIL: census -local built $plans span plans for $runs probing runs" >&2
    exit 1
fi
require_status "http://$CENSUS_ADDR/debug/pprof/heap?debug=1" 200
echo "ok: census -local coordinator serves all required series and profiles ($plans span plans for $runs runs)"

echo "metrics smoke passed"
