#!/usr/bin/env sh
# metrics_lint.sh — the /metrics exposition gate, run by CI.
#
# Starts a real pmsynthd, drives one synthesize and one sweep through it
# (so counters and every latency histogram hold live data), scrapes
# /metrics, and validates the exposition:
#
#  1. Every sample belongs to a family that declared # HELP and # TYPE.
#  2. No series (name + label set) appears twice.
#  3. Histogram buckets are cumulative: within each series the bucket
#     values never decrease, the le="+Inf" bucket equals _count, and
#     every histogram series has _sum and _count lines.
#
# Pure POSIX sh + awk + curl, no dependencies.
set -eu

cd "$(dirname "$0")/.."

ADDR=127.0.0.1:8365
BIN=$(mktemp -d)/pmsynthd
OUT=$(mktemp)
trap 'kill $SRV 2>/dev/null || true; rm -rf "$(dirname "$BIN")" "$OUT"' EXIT

go build -o "$BIN" ./cmd/pmsynthd
"$BIN" -addr "$ADDR" -log-level warn &
SRV=$!

for i in $(seq 1 50); do
    curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done
curl -fsS "http://$ADDR/healthz" >/dev/null

# One synthesize and one sweep, so request, queue, pass and point
# histograms all carry observations.
src='func inc(a: num<8>) out: num<8> = begin out = a + 1; end'
curl -fsS -X POST "http://$ADDR/v1/synthesize" \
    -H 'Content-Type: application/json' \
    -d "{\"source\":\"$src\",\"options\":{\"budget\":1}}" >/dev/null
job=$(curl -fsS -X POST "http://$ADDR/v1/sweep" \
    -H 'Content-Type: application/json' \
    -d "{\"source\":\"$src\",\"spec\":{\"budgetMin\":1,\"budgetMax\":2}}" \
    | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n 1)
state=""
for i in $(seq 1 100); do
    state=$(curl -fsS "http://$ADDR/v1/jobs/$job" \
        | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -n 1)
    case "$state" in succeeded|failed|canceled) break ;; esac
    sleep 0.1
done
if [ "$state" != succeeded ]; then
    echo "metrics-lint: sweep job $job ended in '$state', want succeeded" >&2
    exit 1
fi

curl -fsS "http://$ADDR/metrics" >"$OUT"
kill $SRV
wait $SRV 2>/dev/null || true

awk '
function fail(msg) { print "metrics-lint: " msg > "/dev/stderr"; bad = 1 }
# family(): the metric family a sample line belongs to — the name with
# labels stripped, and for histogram samples the _bucket/_sum/_count
# suffix stripped when the prefix declared itself a histogram.
function family(name,  base) {
    if (name in type) return name
    base = name
    sub(/_(bucket|sum|count)$/, "", base)
    if ((base in type) && type[base] == "histogram") return base
    return name
}
/^# HELP / {
    if ($3 in help) fail("duplicate HELP for " $3)
    help[$3] = 1; next
}
/^# TYPE / {
    if ($3 in type) fail("duplicate TYPE for " $3)
    type[$3] = $4; next
}
/^#/ { next }
NF == 0 { next }
{
    # Label values may contain spaces (route="GET /metrics"), so split
    # at the LAST space: series before it, sample value after it.
    i = match($0, / [^ ]*$/)
    series = substr($0, 1, i - 1)
    value = substr($0, i + 1)
    name = series; sub(/\{.*/, "", name)
    fam = family(name)
    if (!(fam in type)) fail("sample " series " has no # TYPE")
    if (!(fam in help)) fail("sample " series " has no # HELP")
    if (series in seen) fail("duplicate series " series)
    seen[series] = 1
    if (name ~ /_bucket$/ && type[fam] == "histogram") {
        # Key the series without its le label (le renders last);
        # buckets render in ascending le order ending at +Inf, so
        # cumulative counts must never decrease in file order.
        key = series
        sub(/(\{|,)le="[^"]*"\}$/, "", key)
        if (series ~ /,le=/) key = key "}"
        if ((key in last) && value + 0 < last[key] + 0)
            fail("histogram " key " bucket counts decrease: " last[key] " -> " value)
        last[key] = value
        if (series ~ /le="\+Inf"/) inf[key] = value
        nbuckets[key]++
    }
    if (name ~ /_count$/ && type[fam] == "histogram") cnt[series] = value
    if (name ~ /_sum$/ && type[fam] == "histogram") sum[series] = value
}
END {
    for (key in nbuckets) {
        if (!(key in inf)) fail("histogram " key " has no +Inf bucket")
        ckey = key; sub(/_bucket/, "_count", ckey)
        if (!(ckey in cnt)) fail("histogram " key " has no _count series")
        else if (inf[key] + 0 != cnt[ckey] + 0)
            fail("histogram " key " +Inf bucket " inf[key] " != count " cnt[ckey])
        skey = key; sub(/_bucket/, "_sum", skey)
        if (!(skey in sum)) fail("histogram " key " has no _sum series")
    }
    if (bad) { print "metrics-lint: FAILED" > "/dev/stderr"; exit 1 }
}
' "$OUT"

# The gate also pins the legacy series contract: a daemon that served a
# synthesize and a sweep must still expose the original counters.
for series in pmsynthd_cache_misses \
    pmsynthd_jobs_completed pmsynthd_sweep_requests pmsynthd_uptime_seconds; do
    grep -q "^$series " "$OUT" || {
        echo "metrics-lint: legacy series $series missing" >&2
        exit 1
    }
done

# The cluster series are emitted unconditionally — zeros on a
# single-node daemon like this one — so dashboards and alerts never see
# a family appear out of nowhere when -peers is first configured.
for series in pmsynthd_cluster_enabled pmsynthd_cluster_nodes \
    pmsynthd_cluster_proxied_submits pmsynthd_cluster_fallbacks \
    pmsynthd_cluster_forwarded; do
    grep -q "^$series " "$OUT" || {
        echo "metrics-lint: cluster series $series missing" >&2
        exit 1
    }
done

# The Go runtime and process CPU series are read at scrape time, so they
# are present from the first scrape on.
for series in pmsynthd_go_cpu_gc_seconds pmsynthd_go_cpu_user_seconds \
    pmsynthd_go_cpu_idle_seconds pmsynthd_go_cpu_total_seconds \
    pmsynthd_go_gc_cycles pmsynthd_go_heap_alloc_bytes \
    pmsynthd_process_cpu_user_seconds pmsynthd_process_cpu_system_seconds; do
    grep -q "^$series " "$OUT" || {
        echo "metrics-lint: runtime series $series missing" >&2
        exit 1
    }
done

echo "metrics-lint: ok ($(grep -c '^pmsynthd' "$OUT") sample lines)"
