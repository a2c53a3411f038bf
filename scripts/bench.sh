#!/usr/bin/env sh
# bench.sh — run the oracle & kernel benchmark set and emit BENCH_oracle.json.
#
# Usage:
#   scripts/bench.sh [-benchtime 2s] [-o BENCH_oracle.json] [-baseline FILE]
#
# The benchmark set covers the hot paths reworked by the POR oracle and
# simulation-kernel overhaul: the differential campaign, the fault-injection
# matrix, the SC enumeration/matching oracles (with the appears-SC fast
# path on one query and on a campaign's query stream, and the result
# keys the campaign memoizes on), the DRF0 checker, and the axiomatic
# candidate-execution engine. Output is
# a JSON document mapping benchmark names to their measured metrics (ns/op
# plus any benchmark-reported extras such as steps/op or sims/op).
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
OUT=BENCH_oracle.json
BASELINE=
BENCHSET='BenchmarkCheckCampaign|BenchmarkFaultMatrix$|BenchmarkMachineReuse|BenchmarkMachineStep|BenchmarkIdealEnumerateDekker|BenchmarkIdealEnumeratePOR|BenchmarkSCMatchOracle|BenchmarkSatFastPath|BenchmarkResultKey$|BenchmarkDRF0CheckGenerated|BenchmarkAxiomSC'

while [ $# -gt 0 ]; do
    case "$1" in
    -benchtime) BENCHTIME=$2; shift 2 ;;
    -o) OUT=$2; shift 2 ;;
    -baseline) BASELINE=$2; shift 2 ;;
    -benchset) BENCHSET=$2; shift 2 ;;
    *) echo "usage: $0 [-benchtime T] [-o FILE] [-baseline FILE] [-benchset REGEX]" >&2; exit 2 ;;
    esac
done

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

# -benchmem adds B/op and allocs/op; the parser below records every
# reported metric pair, so allocation figures land in the JSON schema
# alongside ns/op without special-casing.
go test -run '^$' -bench "$BENCHSET" -benchtime "$BENCHTIME" -benchmem -count 1 . | tee "$RAW" >&2

COMMIT=$(git describe --always --dirty 2>/dev/null || echo unknown)

awk -v benchtime="$BENCHTIME" -v commit="$COMMIT" -v baseline="$BASELINE" '
function jesc(s) { gsub(/\\/, "\\\\", s); gsub(/"/, "\\\"", s); return s }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1; iters = $2
    metrics = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        if (metrics != "") metrics = metrics ", "
        metrics = metrics "\"" jesc($(i + 1)) "\": " $i
    }
    if (results != "") results = results ",\n"
    results = results sprintf("    \"%s\": {\"iterations\": %s, %s}", jesc(name), iters, metrics)
}
END {
    printf "{\n"
    printf "  \"schema\": \"wofuzz-bench/1\",\n"
    printf "  \"commit\": \"%s\",\n", jesc(commit)
    printf "  \"benchtime\": \"%s\",\n", jesc(benchtime)
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
