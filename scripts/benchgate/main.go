// Command benchgate compares a fresh bench.sh run against the committed
// BENCH_oracle.json and fails when a watched benchmark regresses beyond
// a ratio. CI uses it as a coarse performance tripwire: shared runners
// are noisy, so the default threshold is deliberately generous (2x) —
// it exists to catch "the pooled hot path started allocating again"
// scale regressions, not single-digit-percent drift.
//
// Usage:
//
//	benchgate -current bench-gate.json -baseline BENCH_oracle.json \
//	    -bench BenchmarkCheckCampaign/workers4 [-metric ns/op] [-max-ratio 2.0]
//
// -bench may repeat. A benchmark missing from the baseline is skipped
// with a note (new benchmarks have no reference yet); missing from the
// current run is an error (the bench set broke).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

type benchFile struct {
	Commit  string                        `json:"commit"`
	Results map[string]map[string]float64 `json:"results"`
}

type benchList []string

func (b *benchList) String() string     { return fmt.Sprint(*b) }
func (b *benchList) Set(s string) error { *b = append(*b, s); return nil }

func main() {
	var (
		currentPath  = flag.String("current", "", "bench.sh JSON for the tree under test")
		baselinePath = flag.String("baseline", "BENCH_oracle.json", "committed reference JSON")
		metric       = flag.String("metric", "ns/op", "metric to compare")
		maxRatio     = flag.Float64("max-ratio", 2.0, "fail when current/baseline exceeds this")
		benches      benchList
	)
	flag.Var(&benches, "bench", "benchmark name to gate (repeatable)")
	flag.Parse()
	if *currentPath == "" || len(benches) == 0 {
		fatal(fmt.Errorf("usage: benchgate -current FILE [-baseline FILE] -bench NAME [-bench NAME...]"))
	}
	current, err := load(*currentPath)
	if err != nil {
		fatal(err)
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		fatal(err)
	}
	failed := false
	for _, name := range benches {
		cur, ok := current.Results[name]
		if !ok {
			fatal(fmt.Errorf("%s: missing from current run %s", name, *currentPath))
		}
		base, ok := baseline.Results[name]
		if !ok {
			fmt.Printf("SKIP %s: not in baseline (commit %s)\n", name, baseline.Commit)
			continue
		}
		cv, ok := cur[*metric]
		if !ok {
			fatal(fmt.Errorf("%s: current run lacks metric %q", name, *metric))
		}
		bv, ok := base[*metric]
		if !ok || bv <= 0 {
			fmt.Printf("SKIP %s: baseline lacks usable %q\n", name, *metric)
			continue
		}
		ratio := cv / bv
		status := "ok"
		if ratio > *maxRatio {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%-4s %s: %s %.0f vs baseline %.0f (%.2fx, limit %.2fx)\n",
			status, name, *metric, cv, bv, ratio, *maxRatio)
	}
	if failed {
		os.Exit(1)
	}
}

func load(path string) (benchFile, error) {
	var f benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	// go test suffixes a benchmark name with -GOMAXPROCS unless it is 1;
	// strip the suffix so files from hosts with different core counts
	// compare.
	results := make(map[string]map[string]float64, len(f.Results))
	for name, r := range f.Results {
		if i := strings.LastIndexByte(name, '-'); i > 0 && strings.Trim(name[i+1:], "0123456789") == "" {
			name = name[:i]
		}
		results[name] = r
	}
	f.Results = results
	return f, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
