// Command wofuzz runs a differential model-checking campaign
// (internal/check): generated programs are simulated across a
// policy × topology × caches matrix and every outcome is adjudicated
// against the idealized-architecture SC oracles. The deterministic JSON
// summary goes to stdout; progress, throughput, and the coverage table
// go to stderr.
//
// Usage:
//
//	wofuzz -seed 1 -n 200 -policies all
//	wofuzz -seed 7 -n 50 -policies WO-Def2,SC -topos bus -corpus out/
//	wofuzz -seed 1 -n 2 -policies WO-Def2 -topos bus -fault WO-Def2 -corpus out/
//	wofuzz -seed 1 -n 200 -faults severe
//	wofuzz -axiom -n 100
//
// The same seed and flags always produce a byte-identical summary,
// regardless of -workers. The -fault flag deliberately corrupts one read
// per run on the named policy, exercising the violation pipeline
// (detection, shrinking, corpus emission) end to end. The -faults flag
// arms the deterministic interconnect fault injector (none, mild,
// severe) on every cached matrix row: the hardened protocol must still
// satisfy every oracle, and any watchdog death becomes a shrunk
// liveness reproducer. The -axiom flag switches to the oracle-vs-oracle
// differential: every litmus and generated program is checked between
// the declarative axiomatic engine (internal/axiom) and the operational
// oracles, with -n spread across the generator catalog.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"weakorder/internal/cache"
	"weakorder/internal/check"
	"weakorder/internal/faults"
	"weakorder/internal/machine"
	"weakorder/internal/metrics"
	"weakorder/internal/policy"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "campaign seed (derives every random stream)")
		n        = flag.Int("n", 100, "number of generated programs")
		policies = flag.String("policies", "all", "comma-separated policies, or all")
		topos    = flag.String("topos", "all", "comma-separated topologies (bus, network, mesh), or all")
		procs    = flag.Int("procs", 0, "pad every simulated machine to at least this many processors with idle procs (0 = just the program's threads)")
		dirmode  = flag.String("dirmode", "full", "directory sharer representation on cached rows: full, limited, or coarse")
		runs     = flag.Int("runs", 2, "machine seeds per (program, config) pair")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		corpus   = flag.String("corpus", "", "directory receiving .litmus+.json reproducers for violations")
		table    = flag.Bool("table", true, "print the coverage table to stderr")
		metricsF = flag.Bool("metrics", false, "print the campaign's metrics snapshot (Prometheus text) to stderr")
		fault    = flag.String("fault", "", "corrupt one read per run on this policy (violation-pipeline test)")
		faultsIn = flag.String("faults", "none", "interconnect fault plan: a preset (none, mild, severe) or drop=/dup=/delay=/maxdelay=/noretry spec")
		journal  = flag.String("journal", "", "append-only campaign journal: every completed program is checkpointed here")
		resume   = flag.Bool("resume", false, "resume from an existing -journal instead of starting over")
		deadline = flag.Duration("check-deadline", 0, "wall-clock budget per oracle decision (0 = unbounded; nonzero trades reproducibility for liveness)")
		listen   = flag.String("listen", "", "serve the campaign control plane on this address (/metrics, /progress, /violations, /summary, /debug/pprof)")
		progIntv = flag.Duration("progress-interval", 0, "emit a progress line to stderr at most this often (0 = off)")
		progFmt  = flag.String("progress", "json", "format of -progress-interval lines: json (one object per line, the /progress payload) or text")
		axiomF   = flag.Bool("axiom", false, "run the axiomatic-vs-operational oracle differential instead of the simulation campaign")
		quiet    = flag.Bool("q", false, "suppress progress lines on stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (taken after the campaign) to this file")
	)
	flag.Parse()

	// The violation path exits non-zero via os.Exit, which skips defers,
	// so profile teardown is funneled through an explicit stop hook that
	// every exit path below runs first.
	stopProfiles := startProfiles(*cpuProf, *memProf)

	// SIGTERM/SIGINT end the process cleanly: profiles flush and the exit
	// status is zero. A campaign running with -journal has checkpointed
	// every completed program and resumes with -resume.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "wofuzz: %s: shutting down\n", s)
		atExit()
		os.Exit(0)
	}()

	if *axiomF {
		runAxiomDiff(*seed, *n, *metricsF, *quiet)
		stopProfiles()
		return
	}

	pols, err := parsePolicies(*policies)
	if err != nil {
		fatalUsage(err)
	}
	tps, err := parseTopos(*topos)
	if err != nil {
		fatalUsage(err)
	}
	if *resume && *journal == "" {
		fatalUsage(fmt.Errorf("-resume requires -journal"))
	}
	if *procs < 0 || *runs < 0 || *workers < 0 {
		fatalUsage(fmt.Errorf("-procs, -runs and -workers must be non-negative, got %d, %d and %d", *procs, *runs, *workers))
	}
	dm, err := cache.ParseDirMode(*dirmode)
	if err != nil {
		fatalUsage(err)
	}
	cfg := check.CampaignConfig{
		Seed:           *seed,
		Programs:       *n,
		Policies:       pols,
		Topologies:     tps,
		Procs:          *procs,
		DirMode:        dm,
		SeedsPerConfig: *runs,
		Workers:        *workers,
		CorpusDir:      *corpus,
		Journal:        *journal,
		Resume:         *resume,
		CheckDeadline:  *deadline,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "wofuzz: "+format+"\n", args...)
		}
	}
	switch *progFmt {
	case "json":
		if *progIntv > 0 {
			cfg.ProgressJSON = os.Stderr
			cfg.ProgressEvery = *progIntv
		}
	case "text":
		// Timed human-readable lines ride the same interval machinery but
		// go through Logf (suppressed by -q, like every other text line).
		cfg.ProgressEvery = *progIntv
	default:
		fatalUsage(fmt.Errorf("-progress must be json or text, got %q", *progFmt))
	}
	if *listen != "" {
		cfg.Listen = *listen
		cfg.OnListen = func(addr string) {
			fmt.Fprintf(os.Stderr, "wofuzz: control plane listening on http://%s\n", addr)
		}
	}
	if *fault != "" {
		pol, err := policy.Parse(*fault)
		if err != nil {
			fatalUsage(err)
		}
		cfg.Fault = check.CorruptReadFault(pol)
	}
	plan, err := faults.Parse(*faultsIn)
	if err != nil {
		fatalUsage(err)
	}
	if plan.Enabled() {
		cfg.Faults = &plan
	}

	sum, err := check.Run(cfg)
	if err != nil {
		fatal(err)
	}

	b, err := sum.JSON()
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(b)

	if *table {
		fmt.Fprintln(os.Stderr)
		fmt.Fprintln(os.Stderr, sum.CoverageTable())
	}
	if *metricsF {
		fmt.Fprintln(os.Stderr)
		os.Stderr.Write(sum.Metrics().Prometheus())
	}
	if sum.Perf != nil && !*quiet {
		fmt.Fprintln(os.Stderr, "wofuzz:", sum.Perf)
	}
	if sum.WatchdogDeaths > 0 && !*quiet {
		fmt.Fprintf(os.Stderr, "wofuzz: %d watchdog death(s)\n", sum.WatchdogDeaths)
	}
	stopProfiles()
	if len(sum.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "wofuzz: %d contract violation(s) found\n", len(sum.Violations))
		os.Exit(1)
	}
}

// runAxiomDiff runs the axiomatic-vs-operational differential (see
// check.AxiomCampaign): the litmus suite plus n generated programs
// spread over the generator catalog, every one cross-checked between
// the declarative axiomatic engine and the operational oracles. Any
// disagreement exits non-zero — it is an engine bug, not a model
// difference.
func runAxiomDiff(seed int64, n int, wantMetrics, quiet bool) {
	cfg := check.AxiomCampaignConfig{Seed: seed, PerSpec: (n + 3) / 4}
	if !quiet {
		cfg.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "wofuzz: "+format+"\n", args...)
		}
	}
	var reg *metrics.Registry
	if wantMetrics {
		reg = metrics.NewRegistry()
		cfg.Metrics = reg
	}
	sum, err := check.AxiomCampaign(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("axiom differential: %d programs, %d compared, %d skipped (budget), %d disagreement(s)\n",
		sum.Programs, sum.Compared, sum.Skipped, len(sum.Disagreements))
	if reg != nil {
		fmt.Fprintln(os.Stderr)
		os.Stderr.Write(reg.Snapshot().Prometheus())
	}
	if len(sum.Disagreements) > 0 {
		for i := range sum.Disagreements {
			fmt.Fprintln(os.Stderr, "wofuzz:", sum.Disagreements[i].String())
		}
		atExit()
		os.Exit(1)
	}
}

// startProfiles arms the requested pprof outputs and returns the stop
// hook that flushes them. The hook is idempotent and also wired into
// fatal(), so profiles survive every exit path.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		cpuFile = f
	}
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wofuzz:", err)
				return
			}
			defer f.Close()
			runtime.GC() // fold transient garbage out of the heap picture
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "wofuzz:", err)
			}
		}
	}
	atExit = stop
	return stop
}

// atExit is run by fatal before exiting, so armed profiles still flush
// on error paths.
var atExit = func() {}

func parsePolicies(s string) ([]policy.Kind, error) {
	if s == "" || s == "all" {
		return policy.All(), nil
	}
	var out []policy.Kind
	for _, name := range strings.Split(s, ",") {
		pol, err := policy.Parse(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, pol)
	}
	return out, nil
}

func parseTopos(s string) ([]machine.Topology, error) {
	if s == "" || s == "all" {
		return []machine.Topology{machine.TopoBus, machine.TopoNetwork}, nil
	}
	var out []machine.Topology
	for _, name := range strings.Split(s, ",") {
		topo, err := machine.ParseTopology(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, topo)
	}
	return out, nil
}

func fatal(err error) {
	atExit()
	fmt.Fprintln(os.Stderr, "wofuzz:", err)
	os.Exit(1)
}

// fatalUsage reports a malformed flag value and exits 2 (usage error),
// distinguishing operator mistakes from campaign failures (exit 1) for
// scripts driving the fuzzer.
func fatalUsage(err error) {
	atExit()
	fmt.Fprintln(os.Stderr, "wofuzz: usage:", err)
	os.Exit(2)
}
