#!/usr/bin/env bash
# bench_specexec.sh — conn-vs-batch A/B benchmark for the speculative
# batch executor. Starts compose-server twice (identical engine, shards
# and workload; only -exec differs), drives each with compose-load at
# the given pipelining depth, and writes BENCH_specexec.json with both
# sides' throughput, latency and speculation counters plus the machine
# context (core count) needed to interpret them — batch needs real
# parallelism to win, so a single-core result is expected to favor conn
# and is recorded as such, not hidden.
#
# Each side also runs with the admin plane up (-admin-addr) and the
# JSON records a /metrics scrape taken right after the measured load:
# the per-cause abort composition straight from the Prometheus series.
#
# Usage: scripts/bench_specexec.sh [out.json]
# Env:   DURATION=5s CONNS=4 PIPELINE=16 ENGINE=oestm SHARDS=16
#        KEYS=8192 DIST=uniform WARMUP=500ms
set -euo pipefail

OUT=${1:-BENCH_specexec.json}
DURATION=${DURATION:-5s}
WARMUP=${WARMUP:-500ms}
CONNS=${CONNS:-4}
PIPELINE=${PIPELINE:-16}
ENGINE=${ENGINE:-oestm}
SHARDS=${SHARDS:-16}
KEYS=${KEYS:-8192}
DIST=${DIST:-uniform}
ADDR=${ADDR:-127.0.0.1:7465}
ADMIN=${ADMIN:-127.0.0.1:9465}

TMP=$(mktemp -d)
SRV=""
trap '[ -n "$SRV" ] && kill "$SRV" 2>/dev/null; rm -rf "$TMP"' EXIT

go build -o "$TMP/compose-server" ./cmd/compose-server
go build -o "$TMP/compose-load" ./cmd/compose-load
go build -o "$TMP/httpget" ./scripts/httpget

run_side() { # $1 = conn|batch; leaves the load result in $TMP/$1.csv
    local exec_mode=$1 csv="$TMP/$1.csv"
    "$TMP/compose-server" -addr "$ADDR" -admin-addr "$ADMIN" -engine "$ENGINE" \
        -shards "$SHARDS" -exec "$exec_mode" >"$TMP/$1.log" 2>&1 &
    SRV=$!
    sleep 1
    "$TMP/compose-load" -addr "$ADDR" -conns "$CONNS" -pipeline "$PIPELINE" \
        -keys "$KEYS" -dist "$DIST" -duration "$DURATION" -warmup "$WARMUP" \
        -csv "$csv" >"$TMP/$1.load.log" 2>&1
    # Snapshot the admin plane's exposition before the server goes away.
    "$TMP/httpget" "http://$ADMIN/metrics" >"$TMP/$1.metrics"
    kill -TERM "$SRV"
    wait "$SRV"
    SRV=""
    grep -q drained "$TMP/$1.log" # the A/B is only valid if the drain stayed clean
}

# abort_causes renders one side's compose_aborts_total series as a JSON
# object: {"read_validation": N, "lock_busy": N, ...}.
abort_causes() { # $1 = conn|batch
    awk '/^compose_aborts_total\{cause="/ { split($1, a, "\""); printf "%s\"%s\": %s", sep, a[2], $2; sep=", " }' \
        "$TMP/$1.metrics"
}

run_side conn
run_side batch

# Cells are selected by harness.CSVHeader column name (scripts/csvcol), so
# a new column block cannot shift them.
CSVCOL="$(dirname "$0")/csvcol"
emit_side() { # $1 = conn|batch
    "$CSVCOL" "$TMP/$1.csv" ops_per_ms lat_p50_us lat_p99_us exec spec_execs spec_reexecs spec_validation_fails |
        awk '{ printf "{\"ops_per_ms\": %s, \"lat_p50_us\": %s, \"lat_p99_us\": %s, \"exec\": \"%s\", \"spec_execs\": %s, \"spec_reexecs\": %s, \"spec_validation_fails\": %s}", $1, $2, $3, $4, $5, $6, $7 }'
}

# runtime.NumCPU, not nproc: the Go runtime's affinity/cgroup-aware
# count is what the servers actually scheduled on, so re-records from
# bigger machines stay comparable.
CORES=$(go run ./scripts/numcpu)
SPEEDUP=$(awk -v conn="$("$CSVCOL" "$TMP/conn.csv" ops_per_ms)" \
    -v batch="$("$CSVCOL" "$TMP/batch.csv" ops_per_ms)" \
    'BEGIN { printf "%.3f", batch / conn }')

{
    echo "{"
    echo "  \"bench\": \"specexec-ab\","
    echo "  \"engine\": \"$ENGINE\","
    echo "  \"cores\": $CORES,"
    echo "  \"conns\": $CONNS,"
    echo "  \"pipeline\": $PIPELINE,"
    echo "  \"shards\": $SHARDS,"
    echo "  \"keys\": $KEYS,"
    echo "  \"dist\": \"$DIST\","
    echo "  \"duration\": \"$DURATION\","
    echo "  \"conn\": $(emit_side conn),"
    echo "  \"batch\": $(emit_side batch),"
    echo "  \"conn_abort_causes\": {$(abort_causes conn)},"
    echo "  \"batch_abort_causes\": {$(abort_causes batch)},"
    echo "  \"batch_over_conn_speedup\": $SPEEDUP,"
    echo "  \"note\": \"batch wins only with real parallelism (>= 4 cores) and pipeline depth >= 16; on fewer cores workers time-slice and conn mode's lower coordination cost is expected to win — compare against cores above\""
    echo "}"
} >"$OUT"
echo "wrote $OUT (cores=$CORES, batch/conn = ${SPEEDUP}x)"
