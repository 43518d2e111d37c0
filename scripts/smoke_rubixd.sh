#!/usr/bin/env bash
# End-to-end smoke test for the rubixd sweep service, mirroring what an
# operator relies on: cold sweep simulates and persists, SIGTERM drains
# gracefully, and a warm restart serves the identical sweep entirely from
# the content-addressed store — byte-identical, zero fresh simulations.
#
# Used by `make smoke-rubixd` and the CI rubixd-smoke job. Needs curl + jq.
set -euo pipefail

ADDR="127.0.0.1:${RUBIXD_SMOKE_PORT:-18931}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

BATCH='{"specs":[
  {"Workload":"xz","Mapping":"coffeelake","Mitigation":"none","TRH":128},
  {"Workload":"xz","Mapping":"rubixs-gs4","Mitigation":"aqua","TRH":128}
]}'

go build -o "$WORK/rubixd" ./cmd/rubixd

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "rubixd never became healthy" >&2
  return 1
}

start_server() { # $1 = log file
  "$WORK/rubixd" -addr "$ADDR" -store "$WORK/results" -scale 0.004 \
    2>"$WORK/$1" &
  SERVER_PID=$!
  wait_healthy
}

stop_server() { # graceful SIGTERM shutdown must exit 0
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID"
}

echo "--- cold sweep: fresh simulations, persisted to the store"
start_server cold.log
curl -fsS -d "$BATCH" "http://$ADDR/batch" >"$WORK/cold.json"
jq -e '[.results[] | select(.error == null and .result != null)] | length == 2' \
  "$WORK/cold.json" >/dev/null
curl -fsS "http://$ADDR/metrics?format=json" >"$WORK/cold-metrics.json"
jq -e '.counters.rubixd_sims_fresh == 2 and .counters.rubixd_store_hits == 0' \
  "$WORK/cold-metrics.json" >/dev/null
stop_server
echo "--- graceful shutdown OK"

echo "--- warm restart: same store directory, same sweep"
start_server warm.log
curl -fsS -d "$BATCH" "http://$ADDR/batch" >"$WORK/warm.json"
curl -fsS "http://$ADDR/metrics?format=json" >"$WORK/warm-metrics.json"
# The whole point of the store: the warm server must simulate NOTHING.
jq -e '(.counters.rubixd_sims_fresh // 1) == 0 and .counters.rubixd_store_hits >= 2' \
  "$WORK/warm-metrics.json" >/dev/null
cmp "$WORK/cold.json" "$WORK/warm.json"
echo "--- warm sweep byte-identical to cold, zero fresh simulations"
stop_server
echo "--- graceful shutdown OK"

echo "rubixd smoke: PASS"
