#!/usr/bin/env sh
# cluster_smoke.sh — 3-node cluster fault-injection smoke, run by CI.
#
# Boots three race-instrumented pmsynthd nodes (the race-built binary
# aborts the process on any detected data race) as one static cluster
# over a shared store directory, drives mixed sweep/synthesize traffic
# at all three, crash-kills one node mid-run, and requires the
# survivors to absorb the load: health stays green, a sweep submitted
# after the kill runs to completion through a survivor, synthesize
# requests sent after the kill answer 200, and the
# pmsynthd_cluster_* series show the routing actually happened — with
# # HELP and # TYPE on every cluster family.
#
# Pure POSIX sh + curl, no dependencies.
set -eu

cd "$(dirname "$0")/.."

A=127.0.0.1:8366
B=127.0.0.1:8367
C=127.0.0.1:8368
PEERS="http://$A,http://$B,http://$C"
DIR=$(mktemp -d)
BIN="$DIR/pmsynthd"
trap 'kill $P1 $P2 $P3 2>/dev/null || true; rm -rf "$DIR"' EXIT

go build -race -o "$BIN" ./cmd/pmsynthd

start_node() {
    "$BIN" -addr "$1" -self-url "http://$1" -peers "$PEERS" \
        -store-dir "$DIR/store" -job-workers 2 -log-level warn &
}
start_node "$A"; P1=$!
start_node "$B"; P2=$!
start_node "$C"; P3=$!

wait_health() {
    for i in $(seq 1 50); do
        curl -fsS "http://$1/healthz" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "cluster-smoke: node $1 never became healthy" >&2
    return 1
}
wait_health "$A"
wait_health "$B"
wait_health "$C"

gcd='func gcd(a: num<8>, b: num<8>) g: num<8>, run: bool = begin neq = a != b; gtr = a > b; mx = if gtr -> a || b fi; mn = if gtr -> b || a fi; g = mx - mn; run = neq; end'

# submit_sweep NODE BUDGETMAX — fire-and-forget; failures are tolerated
# here because traffic keeps flowing at a node we are about to kill.
submit_sweep() {
    curl -sS -o /dev/null -X POST "http://$1/v1/sweep" \
        -H 'Content-Type: application/json' \
        -d "{\"source\":\"$gcd\",\"spec\":{\"budgetMin\":3,\"budgetMax\":$2}}" || true
}

# Phase 1: concurrent mixed traffic at all three nodes. Distinct specs
# land on distinct owners, so submissions proxy between nodes; repeated
# specs exercise the dedup and warm paths.
pids=""
for n in $A $B $C; do
    (
        i=0
        while [ $i -lt 10 ]; do
            i=$((i + 1))
            submit_sweep "$n" $((4 + i % 3))
            curl -sS -o /dev/null -X POST "http://$n/v1/synthesize" \
                -H 'Content-Type: application/json' \
                -d "{\"source\":\"$gcd\",\"options\":{\"budget\":$((3 + i % 2))}}" || true
        done
    ) &
    pids="$pids $!"
done
wait $pids

# Crash-kill one node mid-run, then keep the load coming: every spec
# this phase submits that the dead node owns must fail over to the next
# reachable node of its fingerprint's ranking.
kill -9 "$P3"
pids=""
for n in $A $B; do
    (
        i=0
        while [ $i -lt 10 ]; do
            i=$((i + 1))
            submit_sweep "$n" $((4 + i % 4))
        done
    ) &
    pids="$pids $!"
done
wait $pids

# Survivors drain: a fresh sweep submitted after the kill must complete,
# wherever its fingerprint is owned — resolved transparently via node A.
job=$(curl -fsS -X POST "http://$A/v1/sweep" \
    -H 'Content-Type: application/json' \
    -d "{\"source\":\"$gcd\",\"spec\":{\"budgetMin\":3,\"budgetMax\":8}}" \
    | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n 1)
state=""
for i in $(seq 1 100); do
    state=$(curl -fsS "http://$A/v1/jobs/$job" 2>/dev/null \
        | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -n 1)
    case "$state" in succeeded|failed|canceled) break ;; esac
    sleep 0.1
done
if [ "$state" != succeeded ]; then
    echo "cluster-smoke: post-kill sweep $job ended in '$state', want succeeded" >&2
    exit 1
fi

# Synthesize is routed like the one-point sweep it is: after the kill,
# requests at node A for three budgets must each answer, whichever node
# their fingerprints rank first.
for b in 3 4 5; do
    curl -fsS -o /dev/null -X POST "http://$A/v1/synthesize" \
        -H 'Content-Type: application/json' \
        -d "{\"source\":\"$gcd\",\"options\":{\"budget\":$b}}" || {
        echo "cluster-smoke: post-kill synthesize at budget $b failed" >&2
        exit 1
    }
done

curl -fsS "http://$A/healthz" >/dev/null
curl -fsS "http://$B/healthz" >/dev/null

# The cluster exposition: every pmsynthd_cluster_* family declared with
# HELP and TYPE and carrying a sample, the gauges reflecting the static
# 3-node membership (the dead peer stays configured — this is a static
# cluster, not a membership protocol).
OUT="$DIR/metrics"
curl -fsS "http://$A/metrics" >"$OUT"
for fam in pmsynthd_cluster_enabled pmsynthd_cluster_nodes \
    pmsynthd_cluster_proxied_submits pmsynthd_cluster_proxied_jobs \
    pmsynthd_cluster_fallbacks pmsynthd_cluster_forwarded; do
    grep -q "^# HELP $fam " "$OUT" || { echo "cluster-smoke: $fam missing HELP" >&2; exit 1; }
    grep -q "^# TYPE $fam " "$OUT" || { echo "cluster-smoke: $fam missing TYPE" >&2; exit 1; }
    grep -q "^$fam " "$OUT" || { echo "cluster-smoke: $fam missing sample" >&2; exit 1; }
done
grep -q '^pmsynthd_cluster_enabled 1$' "$OUT" || {
    echo "cluster-smoke: node A does not report cluster_enabled 1" >&2; exit 1
}
grep -q '^pmsynthd_cluster_nodes 3$' "$OUT" || {
    echo "cluster-smoke: node A does not report cluster_nodes 3" >&2; exit 1
}

# Routing must have actually happened somewhere: across the two
# survivors, proxied or forwarded submissions plus dead-peer fallbacks
# are all expected to be nonzero in aggregate.
total=$(
    for n in $A $B; do
        curl -fsS "http://$n/metrics" \
            | awk '/^pmsynthd_cluster_(proxied_submits|forwarded|fallbacks) /{s += $2} END {print s + 0}'
    done | awk '{s += $1} END {print s + 0}'
)
if [ "$total" -lt 1 ]; then
    echo "cluster-smoke: no cluster routing observed (proxied+forwarded+fallbacks = $total)" >&2
    exit 1
fi

kill "$P1" "$P2"
wait "$P1" 2>/dev/null || true
wait "$P2" 2>/dev/null || true
echo "cluster-smoke: ok (post-kill sweep $job succeeded; routing events: $total)"
