#!/usr/bin/env sh
# bench.sh — run the oracle & kernel benchmark set and emit BENCH_oracle.json.
#
# Usage:
#   scripts/bench.sh [-benchtime 2s] [-count N] [-o BENCH_oracle.json] [-baseline FILE]
#
# The benchmark set covers the hot paths reworked by the POR oracle and
# simulation-kernel overhaul: the differential campaign, the fault-injection
# matrix, the SC enumeration/matching oracles (with the appears-SC fast
# path on one query and on a campaign's query stream, the result keys
# the campaign memoizes on, and the per-simulation cost of extracting
# and keying a result), the DRF0 checker, and the axiomatic
# candidate-execution engine. Output is
# a JSON document mapping benchmark names to their measured metrics (ns/op
# plus any benchmark-reported extras such as steps/op or sims/op).
#
# With -count N (default 1) every benchmark runs N times and each metric
# written, iterations included, is the median of its N samples; the
# document records "count". One sample on a shared host can read a
# benchmark anywhere from 0.7x to 1.9x of its typical time, so a gate
# comparing single samples against a 2x bound misses real 2x
# regressions; the median of five does not.
#
# With -baseline FILE, the contents of FILE (a previous run of this script,
# typically produced on the pre-change commit in a worktree) are embedded
# under "baseline" so before/after numbers travel in one committed artifact.
#
# CI runs this with -benchtime 1x as a smoke (one iteration per benchmark,
# timing meaningless but regressions in *correctness* of the bench set are
# caught); for numbers worth reading use -benchtime 2s or longer on an idle
# machine.
set -eu

BENCHTIME=1x
COUNT=1
OUT=BENCH_oracle.json
BASELINE=
BENCHSET='BenchmarkCheckCampaign|BenchmarkFaultMatrix$|BenchmarkMachineReuse|BenchmarkMachineStep|BenchmarkIdealEnumerateDekker|BenchmarkIdealEnumeratePOR|BenchmarkSCMatchOracle|BenchmarkSatFastPath|BenchmarkResultKey$|BenchmarkResultOf$|BenchmarkDRF0CheckGenerated|BenchmarkDRF0CheckCandidates|BenchmarkAxiomSC'

while [ $# -gt 0 ]; do
    case "$1" in
    -benchtime) BENCHTIME=$2; shift 2 ;;
    -count) COUNT=$2; shift 2 ;;
    -o) OUT=$2; shift 2 ;;
    -baseline) BASELINE=$2; shift 2 ;;
    -benchset) BENCHSET=$2; shift 2 ;;
    *) echo "usage: $0 [-benchtime T] [-count N] [-o FILE] [-baseline FILE] [-benchset REGEX]" >&2; exit 2 ;;
    esac
done

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

# -benchmem adds B/op and allocs/op; the parser below records every
# reported metric pair, so allocation figures land in the JSON schema
# alongside ns/op without special-casing.
go test -run '^$' -bench "$BENCHSET" -benchtime "$BENCHTIME" -benchmem -count "$COUNT" . | tee "$RAW" >&2

COMMIT=$(git describe --always --dirty 2>/dev/null || echo unknown)

awk -v benchtime="$BENCHTIME" -v count="$COUNT" -v commit="$COMMIT" -v baseline="$BASELINE" '
function jesc(s) { gsub(/\\/, "\\\\", s); gsub(/"/, "\\\"", s); return s }
# median returns the median of metric m over the samples of benchmark b:
# the middle sample as printed, or the mean of the middle two.
function median(b, m,    n, i, j, t, v) {
    n = 0
    for (i = 1; i <= samples[b]; i++) {
        if ((b, m, i) in val) {
            v[++n] = val[b, m, i]
        }
    }
    for (i = 2; i <= n; i++) {
        t = v[i]
        for (j = i - 1; j >= 1 && v[j] + 0 > t + 0; j--) v[j + 1] = v[j]
        v[j + 1] = t
    }
    if (n % 2) return v[(n + 1) / 2]
    return sprintf("%.10g", (v[n / 2] + v[n / 2 + 1]) / 2)
}
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    if (!(name in samples)) {
        order[++nbench] = name
        units[name, ++nunits[name]] = "iterations"
    }
    k = ++samples[name]
    val[name, "iterations", k] = $2
    for (i = 3; i + 1 <= NF; i += 2) {
        if (!((name, $(i + 1)) in seen)) {
            seen[name, $(i + 1)] = 1
            units[name, ++nunits[name]] = $(i + 1)
        }
        val[name, $(i + 1), k] = $i
    }
}
END {
    for (b = 1; b <= nbench; b++) {
        name = order[b]
        metrics = ""
        for (u = 1; u <= nunits[name]; u++) {
            if (metrics != "") metrics = metrics ", "
            metrics = metrics "\"" jesc(units[name, u]) "\": " median(name, units[name, u])
        }
        if (results != "") results = results ",\n"
        results = results sprintf("    \"%s\": {%s}", jesc(name), metrics)
    }
    printf "{\n"
    printf "  \"schema\": \"wofuzz-bench/1\",\n"
    printf "  \"commit\": \"%s\",\n", jesc(commit)
    printf "  \"benchtime\": \"%s\",\n", jesc(benchtime)
    printf "  \"count\": %d,\n", count
    printf "  \"goos\": \"%s\",\n", jesc(goos)
    printf "  \"goarch\": \"%s\",\n", jesc(goarch)
    printf "  \"cpu\": \"%s\",\n", jesc(cpu)
    printf "  \"results\": {\n%s\n  }", results
    if (baseline != "") {
        printf ",\n  \"baseline\": "
        first = 1
        while ((getline line < baseline) > 0) {
            if (!first) printf "\n  "
            printf "%s", line
            first = 0
        }
        close(baseline)
    }
    printf "\n}\n"
}
' "$RAW" >"$OUT"

echo "wrote $OUT" >&2
