// Command wobench is the repository's end-to-end benchmark. It runs one
// of four workloads — three check.Run campaigns and the 256-processor
// Figure 3 simulation — in a closed loop, checks the outputs, and prints
// its metrics as JSON.
//
//	wobench -workload campaign-ref -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured untraced:
// repetitions run back to back until both -reps repetitions and
// -seconds seconds have passed, and each metric is the median over
// repetitions. With -trace 1 it instead replays the workload's pipeline
// with a span around every call into a layer, writes the spans as Chrome
// trace_event JSON, and reports the per-layer metrics. -workload all
// (the default) runs every workload, each in its own child process.
//
// Standard output carries, per workload, one detail line (every metric
// with its median, quartiles and sample count, the correctness gates,
// the campaign summary's sha256) and then the result line:
//
//	{"correct":true,"attempted":…,"failed":…,"metrics":{"name":{"value":…,"unit":"…"}}}
//
// The command exits non-zero when a correctness gate fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"time"

	"weakorder/internal/stats"
)

var workloadNames = []string{"campaign-ref", "campaign-mesh64", "campaign-shrink", "machine-fig3"}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    int
	reps     int
	smoke    bool
	workdir  string
}

var errGate = errors.New("correctness gate failed")

func main() {
	if os.Getenv(hostRefEnv) != "" {
		if err := serveHostRef(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "wobench host reference:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wobench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("wobench", flag.ContinueOnError)
	var o options
	var seconds float64
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&seconds, "seconds", 20, "minimum measured time per workload, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced replay reporting per-layer metrics, 0 = end-to-end metrics")
	fs.IntVar(&o.reps, "reps", 5, "minimum number of timed repetitions")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny input sizes, for the test suite")
	fs.StringVar(&o.workdir, "workdir", os.TempDir(), "directory for corpus directories, profiles and traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if seconds < 0 || o.reps < 1 {
		return fmt.Errorf("-seconds must be non-negative and -reps positive")
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	if o.workload == "all" {
		return runAll(args, stdout)
	}

	var rep *report
	var err error
	switch {
	case o.workload == "machine-fig3" && o.trace == 1:
		rep, err = traceFig3(o)
	case o.workload == "machine-fig3":
		rep, err = measureFig3(o)
	case o.trace == 1:
		rep, err = traceCampaign(o)
	default:
		rep, err = measureCampaign(o)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if err := rep.print(stdout); err != nil {
		return err
	}
	if !rep.correct() {
		return fmt.Errorf("%s: %w", o.workload, errGate)
	}
	return nil
}

// runAll runs every workload in a child process of its own, so each
// starts on a fresh heap and its max_rss_mb is its own.
func runAll(args []string, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloadNames {
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", w)...)
		cmd.Stdout = stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// metric holds one metric's samples: one per repetition, or a single
// value for quantities measured once per run.
type metric struct {
	unit    string
	samples []float64
}

type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type report struct {
	workload   string
	seed       int64
	trace      int
	summarySHA string
	traceFile  string
	attempted  int
	failed     int
	gates      []gate
	metrics    map[string]*metric
	// raw holds unscaled host times and the reference kernel's times;
	// printed on the detail line only.
	raw map[string]*metric
}

func newReport(o options) *report {
	return &report{workload: o.workload, seed: o.seed, trace: o.trace,
		metrics: map[string]*metric{}, raw: map[string]*metric{}}
}

func addSample(ms map[string]*metric, name, unit string, v float64) {
	m := ms[name]
	if m == nil {
		m = &metric{unit: unit}
		ms[name] = m
	}
	m.samples = append(m.samples, v)
}

func (r *report) add(name, unit string, v float64) { addSample(r.metrics, name, unit, v) }

// addTimed adds a host-time metric scaled to the reference host,
// keeping the raw value.
func (r *report) addTimed(name, unit string, raw, scaled float64) {
	addSample(r.metrics, name, unit, scaled)
	addSample(r.raw, name, unit, raw)
}

// finishMeasure adds what an untraced run measures once: peak memory and
// the reference kernel's times.
func (r *report) finishMeasure(h *hostRef) {
	r.add("max_rss_mb", "MB", maxRSSMB())
	r.raw["hostref_ms"] = &metric{unit: "ms", samples: h.times}
}

// check records a gate; a gate checked many times (once per repetition)
// keeps its first failure.
func (r *report) check(name string, ok bool, format string, args ...interface{}) {
	for i := range r.gates {
		if r.gates[i].Name == name {
			if r.gates[i].OK && !ok {
				r.gates[i] = gate{Name: name, OK: false, Detail: fmt.Sprintf(format, args...)}
			}
			return
		}
	}
	g := gate{Name: name, OK: ok}
	if !ok {
		g.Detail = fmt.Sprintf(format, args...)
	}
	r.gates = append(r.gates, g)
}

func (r *report) correct() bool {
	for _, g := range r.gates {
		if !g.OK {
			return false
		}
	}
	return len(r.gates) > 0
}

func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, 25), stats.Percentile(s, 50), stats.Percentile(s, 75)
}

// print writes the detail line and then the result line.
func (r *report) print(w io.Writer) error {
	type detailMetric struct {
		Unit   string  `json:"unit"`
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		N      int     `json:"n"`
	}
	type valueMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	describe := func(ms map[string]*metric) map[string]detailMetric {
		out := make(map[string]detailMetric, len(ms))
		for name, m := range ms {
			q1, med, q3 := quartiles(m.samples)
			out[name] = detailMetric{Unit: m.unit, Median: med, Q1: q1, Q3: q3, N: len(m.samples)}
		}
		return out
	}
	details := describe(r.metrics)
	values := make(map[string]valueMetric, len(details))
	for name, d := range details {
		values[name] = valueMetric{Value: d.Median, Unit: d.Unit}
	}
	detail, err := json.Marshal(struct {
		Workload      string                  `json:"workload"`
		Seed          int64                   `json:"seed"`
		Trace         int                     `json:"trace"`
		SummarySHA256 string                  `json:"summary_sha256,omitempty"`
		TraceFile     string                  `json:"trace_file,omitempty"`
		Gates         []gate                  `json:"gates"`
		Metrics       map[string]detailMetric `json:"metrics"`
		Raw           map[string]detailMetric `json:"raw,omitempty"`
	}{r.workload, r.seed, r.trace, r.summarySHA, r.traceFile, r.gates, details, describe(r.raw)})
	if err != nil {
		return err
	}
	result, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]valueMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, values})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", detail, result)
	return err
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
