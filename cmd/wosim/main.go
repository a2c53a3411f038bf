// Command wosim runs a litmus program on a configured simulated
// multiprocessor and reports the result, whether it appears sequentially
// consistent, and the stall statistics.
//
// Usage:
//
//	wosim -policy WO-Def2 -topo network -caches -seeds 20 prog.litmus
//	echo '...' | wosim -policy SC -
//
// With -builtin NAME a program from the built-in litmus library is used
// instead of a file (see -list).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"weakorder"
	"weakorder/internal/cpu"
	"weakorder/internal/ideal"
	"weakorder/internal/litmus"
	"weakorder/internal/machine"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/runner"
	"weakorder/internal/scmatch"
	"weakorder/internal/workload"
)

var builtins = map[string]func() *program.Program{
	"dekker":      litmus.Dekker,
	"dekker-sync": litmus.DekkerSync,
	"mp":          litmus.MessagePassing,
	"mp-racy":     litmus.MessagePassingRacy,
	"lb":          litmus.LoadBuffering,
	"iriw":        litmus.IRIW,
	"coherence":   litmus.Coherence,
	"figure3":     litmus.Figure3,
	"critsec":     func() *program.Program { return litmus.CriticalSection(2, 2) },
	"ttas":        func() *program.Program { return litmus.TestAndTAS(2, 2) },
	"barrier":     func() *program.Program { return litmus.Barrier(3) },
	"fig3scaled":  func() *program.Program { return workload.Fig3Scaled(8) },
}

func main() {
	var (
		policyName  = flag.String("policy", "WO-Def2", "consistency policy: SC, Unconstrained, WO-Def1, WO-Def2, WO-Def2+RO")
		topo        = flag.String("topo", "network", "interconnect: bus, network, or mesh")
		caches      = flag.Bool("caches", true, "coherent caches (false = flat memory modules)")
		procs       = flag.Int("procs", 0, "total processors: the program's threads plus idle procs up to this count (0 = threads only)")
		dirmode     = flag.String("dirmode", "full", "directory sharer representation: full, limited, or coarse (requires -caches)")
		seeds       = flag.Int("seeds", 1, "number of seeds to run")
		seed        = flag.Int64("seed", 0, "first seed")
		builtin     = flag.String("builtin", "", "run a built-in litmus program instead of a file")
		list        = flag.Bool("list", false, "list built-in programs and exit")
		verbose     = flag.Bool("v", false, "print the committed-operation trace")
		metricsOut  = flag.String("metrics", "", "write the last run's metrics snapshot as JSON to this file (- for stdout)")
		timelineOut = flag.String("timeline", "", "write the last run's Chrome trace_event timeline to this file (- for stdout)")
		traceFirst  = flag.Bool("trace", false, "print the first seed's full timeline (inspecting shrunk reproducers)")
		faultsIn    = flag.String("faults", "none", "interconnect fault plan: a preset (none, mild, severe) or drop=/dup=/delay=/maxdelay=/noretry spec (requires -caches)")
		checkSC     = flag.Bool("check-sc", true, "check each result against the SC oracle")
		suite       = flag.Bool("suite", false, "run the classic litmus suite across all policies and exit")
	)
	flag.Parse()
	if *seeds < 1 {
		fatalUsage(fmt.Errorf("-seeds must be at least 1, got %d", *seeds))
	}

	if *suite {
		runSuite(*seeds)
		return
	}

	if *list {
		names := make([]string, 0, len(builtins))
		for n := range builtins {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	prog, err := loadProgram(*builtin, flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	pol, err := weakorder.ParsePolicy(*policyName)
	if err != nil {
		fatal(err)
	}
	cfg := weakorder.MachineConfig{
		Policy:   pol,
		Caches:   *caches,
		Metrics:  *metricsOut != "",
		Timeline: *timelineOut != "" || *traceFirst,
	}
	if cfg.Topology, err = machine.ParseTopology(*topo); err != nil {
		fatalUsage(err)
	}
	if *procs < 0 {
		fatalUsage(fmt.Errorf("-procs must be non-negative, got %d", *procs))
	}
	if *procs > 0 {
		if *procs < prog.NumThreads() {
			fatalUsage(fmt.Errorf("-procs %d is below the program's %d threads", *procs, prog.NumThreads()))
		}
		cfg.ExtraProcs = *procs - prog.NumThreads()
	}
	dm, err := weakorder.ParseDirMode(*dirmode)
	if err != nil {
		fatalUsage(err)
	}
	if dm != weakorder.DirFullMap && !*caches {
		fatalUsage(fmt.Errorf("-dirmode %s requires -caches", dm))
	}
	cfg.DirMode = dm
	plan, err := weakorder.ParseFaultPlan(*faultsIn)
	if err != nil {
		fatalUsage(err)
	}
	if plan.Enabled() {
		cfg.Faults = &plan
	}

	fmt.Printf("program %s on %s\n\n", prog.Name, cfg.Name())
	outcomes := make(map[string]int)
	isSC := make(map[string]bool) // appears-SC verdict per result key
	nonSC := 0
	condHits := 0
	for s := 0; s < *seeds; s++ {
		res, err := weakorder.Simulate(prog, cfg, *seed+int64(s))
		if err != nil {
			fatal(err)
		}
		key := res.Result.Key()
		outcomes[key]++
		if *verbose {
			fmt.Printf("--- seed %d (%d cycles)\n", *seed+int64(s), res.Stats.Cycles)
			for _, op := range res.Exec.Ops {
				fmt.Println("  ", op)
			}
		}
		if *checkSC {
			sc, seen := isSC[key]
			if !seen {
				m, err := scmatch.Decide(prog, res.Result, scmatch.Config{})
				if err != nil {
					fatal(err)
				}
				sc = m.OK
				isSC[key] = sc
			}
			if !sc {
				nonSC++
			}
		}
		if res.CondHolds(prog) {
			condHits++
		}
		if s == 0 && *traceFirst {
			if err := res.Timeline.WriteText(os.Stdout, 0); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		if s == *seeds-1 {
			printStats(res)
			if err := writeTelemetry(res, *metricsOut, *timelineOut); err != nil {
				fatal(err)
			}
		}
	}

	fmt.Printf("\noutcomes over %d seeds:\n", *seeds)
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %4dx %s\n", outcomes[k], k)
	}
	if *checkSC {
		fmt.Printf("non-SC results: %d/%d\n", nonSC, *seeds)
	}
	if prog.Cond != nil {
		allowed, err := condAllowedUnderSC(prog)
		if err != nil {
			fatal(err)
		}
		verdict := "FORBIDDEN under SC"
		if allowed {
			verdict = "allowed under SC"
		}
		fmt.Printf("condition %q: observed %d/%d (%s)\n", prog.Cond.String(), condHits, *seeds, verdict)
	}
}

// condAllowedUnderSC reports whether any sequentially consistent
// execution satisfies the program's postcondition.
func condAllowedUnderSC(prog *program.Program) (bool, error) {
	allowed := false
	_, err := ideal.Enumerate(prog, ideal.EnumConfig{
		Interp:        ideal.Config{MaxMemOpsPerThread: 16},
		SkipTruncated: true,
		MaxPaths:      5_000_000,
	}, func(it *ideal.Interp) error {
		if it.EvalCond(prog.Cond) {
			allowed = true
			return ideal.ErrStop
		}
		return nil
	})
	return allowed, err
}

func loadProgram(builtin, path string) (*program.Program, error) {
	if builtin != "" {
		mk, ok := builtins[builtin]
		if !ok {
			return nil, fmt.Errorf("unknown builtin %q (use -list)", builtin)
		}
		return mk(), nil
	}
	if path == "" {
		return nil, fmt.Errorf("usage: wosim [flags] prog.litmus  (or -builtin NAME, or - for stdin)")
	}
	var src []byte
	var err error
	if path == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return weakorder.ParseProgram(string(src))
}

// writeTelemetry emits the last run's metrics snapshot and Chrome
// trace_event timeline to the paths given on the command line ("-"
// means stdout, "" means off).
func writeTelemetry(res *weakorder.RunResult, metricsPath, timelinePath string) error {
	if metricsPath != "" {
		b, err := res.Metrics.JSON()
		if err != nil {
			return err
		}
		if err := writeOut(metricsPath, b); err != nil {
			return err
		}
	}
	if timelinePath != "" {
		// Stream the trace straight to its destination: a long run's
		// timeline can dwarf the rest of the process's memory if
		// materialized as one byte slice first.
		if timelinePath == "-" {
			if err := res.Timeline.WriteChromeTrace(os.Stdout); err != nil {
				return err
			}
		} else {
			f, err := os.Create(timelinePath)
			if err != nil {
				return err
			}
			if err := res.Timeline.WriteChromeTrace(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeOut(path string, b []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func printStats(res *weakorder.RunResult) {
	fmt.Printf("\nlast run: %d cycles, %d messages (avg latency %.1f)\n",
		res.Stats.Cycles, res.Stats.Net.Messages, res.Stats.Net.AvgLatency())
	if fs := res.FaultStats; fs != nil {
		fmt.Printf("faults: %d faultable msgs, %d dropped, %d duplicated, %d delayed (+%d cycles total), %d retries\n",
			fs.Faultable, fs.Drops, fs.Dups, fs.Delays, fs.ExtraDelayCycles, fs.Retries)
	}
	for i := range res.Stats.Procs {
		p := &res.Stats.Procs[i]
		fmt.Printf("  P%d: %d mem ops (%d sync), stalls:", i, p.MemOps, p.SyncOps)
		for r := 0; r < cpu.NumReasons; r++ {
			if p.Stall[r] > 0 {
				fmt.Printf(" %v=%d", cpu.Reason(r), p.Stall[r])
			}
		}
		fmt.Println()
	}
}

// runSuite prints the classic litmus matrix: for each test and policy,
// how many of the seeds exhibited the SC-forbidden outcome.
func runSuite(seeds int) {
	if seeds <= 1 {
		seeds = 20
	}
	pols := []policy.Kind{policy.SC, policy.Unconstrained, policy.WODef1, policy.WODef2, policy.WODef2RO}
	fmt.Printf("%-8s", "test")
	for _, pol := range pols {
		fmt.Printf("  %-14s", pol)
	}
	fmt.Printf("  (forbidden/runs, %d seeds, network+caches)\n", seeds)
	for _, tc := range litmus.Classic() {
		fmt.Printf("%-8s", tc.Name)
		for _, pol := range pols {
			cfg := machine.Config{Policy: pol, Topology: machine.TopoNetwork, Caches: true, NetJitter: 20}
			rep, err := runner.RunOn(tc.Prog, cfg, runner.Config{Seeds: seeds, Forbidden: tc.Forbidden})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  %-14s", fmt.Sprintf("%d/%d", rep.ForbiddenRuns, rep.Runs))
		}
		fmt.Println()
	}
	fmt.Println("\nSC never exhibits a forbidden outcome; the Co* rows are coherence-")
	fmt.Println("guaranteed on every machine; the rest are fair game for weak hardware")
	fmt.Println("because these programs race (DRF0 makes no promise about them).")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wosim:", err)
	os.Exit(1)
}

// fatalUsage reports a malformed flag value and exits 2 (usage error)
// rather than 1 (simulation failure).
func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "wosim: usage:", err)
	os.Exit(2)
}
