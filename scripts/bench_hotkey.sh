#!/usr/bin/env bash
# bench_hotkey.sh — boosted-vs-RMW A/B benchmark for the commutative
# hot-key path. Starts compose-server twice (identical engine, shards
# and seeded workload; only -boost differs: on vs off), drives each
# with the same zipfian add-heavy compose-load mix, and writes
# BENCH_hotkey.json with both sides' throughput, abort and hot-key
# counters plus the machine context needed to interpret them. The
# server runs oversubscribed (GOMAXPROCS, default 8) so the hot key
# genuinely contends even on small boxes; the recorded core count is
# runtime.NumCPU — on one core the absolute throughputs mean little,
# but the abort asymmetry (boosted adds never conflict, RMW adds
# serialize through version conflicts) is the measured claim.
#
# Each side also runs with the admin plane up (-admin-addr) and the
# JSON records a /metrics scrape taken right after the measured load:
# the per-cause abort composition straight from the Prometheus series,
# so the artifact explains *why* one side aborted more, not just how
# much.
#
# Usage: scripts/bench_hotkey.sh [out.json]
# Env:   DURATION=5s CONNS=4 ENGINE=oestm SHARDS=16 KEYS=1024
#        THETA=0.99 MIX="add:70,madd:15,get:10,mget:5" SEED=7
#        WARMUP=500ms SRV_PROCS=8
set -euo pipefail

OUT=${1:-BENCH_hotkey.json}
DURATION=${DURATION:-5s}
WARMUP=${WARMUP:-500ms}
CONNS=${CONNS:-4}
ENGINE=${ENGINE:-oestm}
SHARDS=${SHARDS:-16}
KEYS=${KEYS:-1024}
THETA=${THETA:-0.99}
MIX=${MIX:-add:70,madd:15,get:10,mget:5}
SEED=${SEED:-7}
SRV_PROCS=${SRV_PROCS:-8}
ADDR=${ADDR:-127.0.0.1:7466}
ADMIN=${ADMIN:-127.0.0.1:9466}

TMP=$(mktemp -d)
SRV=""
trap '[ -n "$SRV" ] && kill "$SRV" 2>/dev/null; rm -rf "$TMP"' EXIT

go build -o "$TMP/compose-server" ./cmd/compose-server
go build -o "$TMP/compose-load" ./cmd/compose-load
go build -o "$TMP/httpget" ./scripts/httpget

run_side() { # $1 = on|off; leaves the load result in $TMP/$1.csv
    local boost=$1 csv="$TMP/$1.csv"
    GOMAXPROCS=$SRV_PROCS "$TMP/compose-server" -addr "$ADDR" -admin-addr "$ADMIN" \
        -engine "$ENGINE" -shards "$SHARDS" -boost "$boost" >"$TMP/$1.log" 2>&1 &
    SRV=$!
    sleep 1
    "$TMP/compose-load" -addr "$ADDR" -conns "$CONNS" -keys "$KEYS" \
        -mix "$MIX" -dist zipfian -theta "$THETA" -seed "$SEED" \
        -duration "$DURATION" -warmup "$WARMUP" -csv "$csv" >"$TMP/$1.load.log" 2>&1
    # Snapshot the admin plane's exposition before the server goes away:
    # the JSON's abort-cause composition comes from this scrape.
    "$TMP/httpget" "http://$ADMIN/metrics" >"$TMP/$1.metrics"
    kill -TERM "$SRV"
    wait "$SRV"
    SRV=""
    grep -q drained "$TMP/$1.log" # the A/B is only valid if the drain stayed clean
}

# abort_causes renders one side's compose_aborts_total series as a JSON
# object: {"read_validation": N, "lock_busy": N, ...}.
abort_causes() { # $1 = on|off
    awk '/^compose_aborts_total\{cause="/ { split($1, a, "\""); printf "%s\"%s\": %s", sep, a[2], $2; sep=", " }' \
        "$TMP/$1.metrics"
}

run_side on
run_side off

# Cells are selected by harness.CSVHeader column name (scripts/csvcol), so
# a new column block cannot shift them.
CSVCOL="$(dirname "$0")/csvcol"
emit_side() { # $1 = on|off
    "$CSVCOL" "$TMP/$1.csv" ops_per_ms abort_rate aborts adds boosted_ops hot_promotions hot_demotions |
        awk '{ printf "{\"ops_per_ms\": %s, \"abort_rate\": %s, \"aborts\": %s, \"adds\": %s, \"boosted_ops\": %s, \"hot_promotions\": %s, \"hot_demotions\": %s}", $1, $2, $3, $4, $5, $6, $7 }'
}

# runtime.NumCPU, not nproc: the Go runtime's affinity/cgroup-aware
# count is what the servers actually scheduled on.
CORES=$(go run ./scripts/numcpu)
SPEEDUP=$(awk -v off="$("$CSVCOL" "$TMP/off.csv" ops_per_ms)" \
    -v on="$("$CSVCOL" "$TMP/on.csv" ops_per_ms)" \
    'BEGIN { printf "%.3f", on / off }')

{
    echo "{"
    echo "  \"bench\": \"hotkey-ab\","
    echo "  \"engine\": \"$ENGINE\","
    echo "  \"cores\": $CORES,"
    echo "  \"gomaxprocs_server\": $SRV_PROCS,"
    echo "  \"conns\": $CONNS,"
    echo "  \"shards\": $SHARDS,"
    echo "  \"keys\": $KEYS,"
    echo "  \"dist\": \"zipfian:$THETA\","
    echo "  \"mix\": \"$MIX\","
    echo "  \"seed\": $SEED,"
    echo "  \"duration\": \"$DURATION\","
    echo "  \"boosted\": $(emit_side on),"
    echo "  \"rmw\": $(emit_side off),"
    echo "  \"boosted_abort_causes\": {$(abort_causes on)},"
    echo "  \"rmw_abort_causes\": {$(abort_causes off)},"
    echo "  \"boosted_over_rmw_speedup\": $SPEEDUP,"
    echo "  \"note\": \"same-seed A/B; boosted adds take abstract per-key locks and cannot conflict, so the claim under test is strictly fewer aborts at equal-or-better throughput. The server is oversubscribed (gomaxprocs_server) so the hot key contends even when cores is small; compare throughputs only against the recorded core count\""
    echo "}"
} >"$OUT"
echo "wrote $OUT (cores=$CORES, boosted/rmw throughput = ${SPEEDUP}x)"
