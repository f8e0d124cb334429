#!/bin/sh
# Daemon smoke: launch wld on a unix socket, drive traced session churn
# through the result-typed client, introspect the live daemon (`wl top
# --connect`, `wl trace pull`), SIGTERM, and assert a clean graceful
# drain — exit 0, scrapeable OpenMetrics expositions on both sides, a
# validating pulled trace, tenant-named flight dumps and a non-empty
# per-tenant health listing left behind.  That leg runs --shards 2 (two
# accept domains, joined at the drain); a second leg runs --shards 1,
# where every connection and every wave share one domain.
set -eu

WL=$1
STRESS=$2

# wait_bound SOCK PID: wait until the daemon PID has bound SOCK
wait_bound() {
  i=0
  while [ ! -S "$1" ]; do
    i=$((i + 1))
    if [ $i -gt 100 ]; then
      echo "daemon never bound $1" >&2
      kill "$2" 2>/dev/null || true
      exit 1
    fi
    sleep 0.1
  done
}

SOCK=./wld_smoke.sock
"$WL" wld "unix:$SOCK" --shards 2 --metrics-out wld_smoke_metrics.txt \
  --health-dump wld_smoke_health.txt --flight-dump wld_smoke_flight &
WLD_PID=$!
wait_bound "$SOCK" "$WLD_PID"

# Churn with tracing on: every request carries a trace context, so the
# daemon-side flight rings and HDR exemplars latch real trace ids.
"$STRESS" --daemon "unix:$SOCK" --sessions 64 --client-threads 4 --ops 8 \
  --trace --metrics-out stress_daemon_metrics.txt

# Live introspection against the still-running daemon: one top frame
# (shard-merged rollups + per-tenant rows) and a pulled merged trace
# that must satisfy the same validator as every other trace artifact.
"$WL" top --connect "unix:$SOCK" --frames 1 \
  --metrics-out top_connect_metrics.txt | grep -q "64 sessions"
"$WL" trace pull "unix:$SOCK" --last 16 -o pulled.trace.json
"$WL" trace-check pulled.trace.json

kill -TERM "$WLD_PID"
wait "$WLD_PID"

"$WL" metrics-check wld_smoke_metrics.txt
"$WL" metrics-check stress_daemon_metrics.txt
"$WL" metrics-check top_connect_metrics.txt

# The drain dumps every tenant's flight ring under its own name
# (PREFIX.TENANT.{jsonl,trace.json}) — 64 tenants, 64 dump pairs, none
# overwriting another, each one a valid trace.
n_dumps=$(ls wld_smoke_flight.*.trace.json | wc -l)
if [ "$n_dumps" -ne 64 ]; then
  echo "expected 64 tenant-named flight dumps, found $n_dumps" >&2
  exit 1
fi
test -s wld_smoke_flight.t00000.jsonl
test -s wld_smoke_flight.t00063.jsonl
"$WL" trace-check wld_smoke_flight.t00000.trace.json
"$WL" trace-check wld_smoke_flight.t00063.trace.json
test -s wld_smoke_health.txt

# One domain: churn, then SIGTERM must still drain and exit 0.
SOCK1=./wld_smoke1.sock
"$WL" wld "unix:$SOCK1" --shards 1 &
WLD1_PID=$!
wait_bound "$SOCK1" "$WLD1_PID"
"$STRESS" --daemon "unix:$SOCK1" --sessions 64 --client-threads 4 --ops 8
kill -TERM "$WLD1_PID"
wait "$WLD1_PID"
