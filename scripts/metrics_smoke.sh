#!/usr/bin/env bash
# metrics_smoke.sh boots anycastd and a `census -local 2` coordinator
# against tiny worlds and asserts that GET /metrics serves Prometheus text
# exposition carrying every required series family: probe, census,
# store, cluster, and HTTP - that
# anycastd's first census fed the analysis counters, that the runtime's
# profiles answer under /debug/pprof/ on both admin listeners and nowhere
# on anycastd's public one, and that the census browser answers on
# anycastd's admin listener only. It is the end-to-end form of
# TestMetricsExposition, wired into CI as `make metrics-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
ANYCASTD_ADDR=${ANYCASTD_ADDR:-127.0.0.1:18090}
ANYCASTD_ADMIN=${ANYCASTD_ADMIN:-127.0.0.1:18092}
CENSUS_ADDR=${CENSUS_ADDR:-127.0.0.1:18091}
BIN=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT

"$GO" build -o "$BIN" ./cmd/anycastd ./cmd/census

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

echo "== anycastd /metrics =="
"$BIN/anycastd" -addr "$ANYCASTD_ADDR" -admin "$ANYCASTD_ADMIN" -unicast24s 800 -vps 40 \
    -censuses 1 -refresh 1h &
pids+=($!)
wait_http "http://$ANYCASTD_ADDR/healthz" 150

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
    anycastmap_probe_probes_sent_total \
    anycastmap_probe_echo_replies_total \
    anycastmap_probe_span_seconds_count \
    anycastmap_probe_spans_in_flight \
    anycastmap_census_rounds_folded_total \
    anycastmap_census_analyze_seconds_count \
    anycastmap_census_analyses_total \
    anycastmap_census_witness_decided_total \
    anycastmap_census_split_scanned_total \
    anycastmap_census_pair_tests_total \
    anycastmap_store_snapshot_version \
    anycastmap_store_lookups_total \
    anycastmap_refresh_completed_total \
    'anycastmap_http_requests_total{endpoint="lookup"}'
grep -q '^anycastmap_refresh_completed_total 1$' "$scrape" ||
    { echo "FAIL: anycastd first refresh not counted" >&2; exit 1; }
if grep -q '^anycastmap_census_analyses_total 0$' "$scrape"; then
    echo "FAIL: anycastd's first census fed no target analyses" >&2
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
echo "ok: anycastd serves the census browser on its admin listener only"

echo "== census -local /metrics =="
# The coordinator exits when its rounds are done, so the census must
# outlast the poll below: at 3,000 /24s it finished in 150 ms, before the
# first scrape could land.
"$BIN/census" -local 2 -metrics "$CENSUS_ADDR" -unicast24s 150000 -censuses 4 -vps 24 &
pids+=($!)
wait_http "http://$CENSUS_ADDR/metrics" 150

scrape=$BIN/census.metrics
curl -fsS "http://$CENSUS_ADDR/metrics" -o "$scrape"
require_series "$scrape" \
    anycastmap_probe_probes_sent_total \
    anycastmap_probe_span_seconds_count \
    anycastmap_probe_spans_in_flight \
    anycastmap_census_rounds_folded_total \
    anycastmap_cluster_agents_joined_total \
    anycastmap_cluster_leases_total \
    anycastmap_cluster_shard_fold_seconds_count
require_status "http://$CENSUS_ADDR/debug/pprof/heap?debug=1" 200
echo "ok: census -local coordinator serves all required series and profiles"

echo "metrics smoke passed"
