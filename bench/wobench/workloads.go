package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"weakorder/internal/cache"
	"weakorder/internal/check"
	"weakorder/internal/cpu"
	"weakorder/internal/lang"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/workload"
)

// campaignWorkers is the campaign worker count. Load comes from this one
// process, in a closed loop: the next repetition starts when the previous
// one returns.
const campaignWorkers = 2

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

func size(o options, full, smoke int) int {
	if o.smoke {
		return smoke
	}
	return full
}

// campaignConfig is the check.Run configuration of a campaign workload,
// with every default spelled out so the replay sees the same values.
func campaignConfig(o options) (check.CampaignConfig, error) {
	cfg := check.CampaignConfig{
		Seed:           o.seed,
		Policies:       policy.All(),
		Topologies:     []machine.Topology{machine.TopoBus, machine.TopoNetwork},
		SeedsPerConfig: 2,
		Workers:        campaignWorkers,
	}
	switch o.workload {
	case "campaign-ref":
		cfg.Programs = size(o, 800, 8)
		// Every policy but WO-Def2+RO: on the network rows it wedges a
		// racefree-ttas program on about 2% of seeds (watchdog death in
		// sync-commit; seeds 54 and 508), and a benchmark seed must not
		// fail.
		cfg.Policies = []policy.Kind{policy.SC, policy.Unconstrained, policy.WODef1, policy.WODef2}
	case "campaign-mesh64":
		cfg.Programs = size(o, 1200, 8)
		cfg.Policies = []policy.Kind{policy.SC, policy.WODef2}
		cfg.Topologies = []machine.Topology{machine.TopoMesh}
		cfg.Procs = size(o, 64, 8)
		cfg.DirMode = cache.DirLimitedPtr
	case "campaign-shrink":
		cfg.Programs = size(o, 20, 4)
		cfg.Policies = []policy.Kind{policy.WODef2, policy.SC}
		cfg.Fault = check.CorruptReadFault(policy.WODef2)
	default:
		return cfg, fmt.Errorf("unknown workload %q (want one of %v or all)", o.workload, workloadNames)
	}
	return cfg, nil
}

// withCorpus gives the shrink workload a fresh corpus directory, as each
// `wofuzz -fault … -corpus` call would; cleanup removes it.
func withCorpus(cfg check.CampaignConfig, o options) (check.CampaignConfig, func(), error) {
	if cfg.Fault == nil {
		return cfg, func() {}, nil
	}
	dir, err := os.MkdirTemp(o.workdir, "corpus-")
	if err != nil {
		return cfg, nil, err
	}
	cfg.CorpusDir = dir
	return cfg, func() { os.RemoveAll(dir) }, nil
}

// setupCampaign is the campaign set-up: configuration, corpus directory,
// and a discarded warm-up campaign over a tenth of the programs, so
// lazily built state is paid here and not in the first timed repetition.
func setupCampaign(o options) (check.CampaignConfig, error) {
	cfg, err := campaignConfig(o)
	if err != nil {
		return cfg, err
	}
	warm, cleanup, err := withCorpus(cfg, o)
	if err != nil {
		return cfg, err
	}
	defer cleanup()
	warm.Programs = max(4, cfg.Programs/10)
	_, err = check.Run(warm)
	return cfg, err
}

func summarySHA(s *check.Summary) (string, error) {
	b, err := s.JSON()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

func failures(s *check.Summary) int {
	return s.Oracle.BudgetExceeded + s.DeadlineSkips + s.WatchdogDeaths + s.WorkerPanics
}

// campaignGates checks one campaign Summary.
func campaignGates(r *report, cfg check.CampaignConfig, s *check.Summary) {
	if cfg.Fault == nil {
		r.check("clean", len(s.Violations) == 0 && s.WatchdogDeaths == 0 && s.WorkerPanics == 0,
			"%d violations, %d watchdog deaths, %d panics", len(s.Violations), s.WatchdogDeaths, s.WorkerPanics)
		return
	}
	// Every simulation of a DRF program on a corrupted WO-Def2 row is a
	// violation, and nothing else is.
	woRows := 0
	for _, m := range campaignMatrix(cfg) {
		if m.Policy == policy.WODef2 {
			woRows++
		}
	}
	want := s.ByClass[check.ClassDRF] * woRows * cfg.SeedsPerConfig
	r.check("violations-expected", len(s.Violations) == want && want > 0,
		"%d violations, want %d", len(s.Violations), want)
	specs := map[string]genSpec{}
	for _, g := range generators() {
		specs[g.name] = g
	}
	for _, v := range s.Violations {
		p, err := lang.Parse(v.Litmus)
		r.check("reproducers-parse", err == nil, "program %d: %v", v.ProgramIndex, err)
		g, ok := specs[v.Generator]
		r.check("reproducers-shrunk", ok && err == nil && instructionCount(p) <= instructionCount(g.make(v.GenSeed)),
			"program %d: reproducer longer than its source", v.ProgramIndex)
	}
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// timeLoop runs rep until at least minReps repetitions and d have
// passed.
func timeLoop(minReps int, d time.Duration, rep func() error) error {
	start := time.Now()
	for n := 0; n < minReps || time.Since(start) < d; n++ {
		if err := rep(); err != nil {
			return err
		}
	}
	return nil
}

func measureCampaign(o options) (*report, error) {
	r := newReport(o)
	h, err := newHostRef()
	if err != nil {
		return nil, err
	}
	defer h.close()
	var cfg check.CampaignConfig
	for i := 0; i < setupReps; i++ {
		raw, scaled, err := h.timed(func() (err error) {
			cfg, err = setupCampaign(o)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.addTimed("setup_s", "s", raw, scaled)
	}

	err = timeLoop(o.reps, o.seconds, func() error {
		run, cleanup, err := withCorpus(cfg, o)
		if err != nil {
			return err
		}
		defer cleanup()
		// The fault hook is check.Run's one per-simulation callback; it
		// sums simulated cycles, including the shrinker's simulations.
		var cycles atomic.Uint64
		inner := run.Fault
		run.Fault = func(mc machine.Config, p *program.Program, res *machine.RunResult) {
			cycles.Add(res.Stats.Cycles)
			if inner != nil {
				inner(mc, p, res)
			}
		}
		var s *check.Summary
		var m0, m1 runtime.MemStats
		raw, scaled, err := h.timed(func() (err error) {
			runtime.ReadMemStats(&m0)
			s, err = check.Run(run)
			runtime.ReadMemStats(&m1)
			return err
		})
		if err != nil {
			return err
		}
		sha, err := summarySHA(s)
		if err != nil {
			return err
		}
		if r.summarySHA == "" {
			r.summarySHA = sha
		}
		r.check("summary-identical", sha == r.summarySHA, "repetition summary sha256 %s, first %s", sha, r.summarySHA)
		campaignGates(r, cfg, s)
		r.attempted += s.Sims
		r.failed += failures(s)
		r.addTimed("sims_per_s", "1/s", float64(s.Sims)/raw, float64(s.Sims)/scaled)
		r.add("alloc_mb", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		r.add("sim_cycles", "cycles", float64(cycles.Load()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.finishMeasure(h)
	return r, nil
}

// traceCampaign runs the campaign once under the CPU profiler (the
// reference Summary for the fidelity gate), then replays it untraced and
// traced, pair after pair, until o.seconds have passed.
func traceCampaign(o options) (*report, error) {
	r := newReport(o)
	cfg, err := setupCampaign(o)
	if err != nil {
		return nil, err
	}

	run, cleanup, err := withCorpus(cfg, o)
	if err != nil {
		return nil, err
	}
	var s *check.Summary
	prof, err := profile(filepath.Join(o.workdir, o.workload+".pprof"), func() (err error) {
		s, err = check.Run(run)
		return err
	})
	cleanup()
	if err != nil {
		return nil, err
	}
	if r.summarySHA, err = summarySHA(s); err != nil {
		return nil, err
	}
	campaignGates(r, cfg, s)
	r.attempted, r.failed = s.Sims, failures(s)

	replayOnce := func(tr *tracer) (*replay, float64, error) {
		run, cleanup, err := withCorpus(cfg, o)
		if err != nil {
			return nil, 0, err
		}
		defer cleanup()
		rp := newReplay(run, tr)
		runtime.GC()
		t := time.Now()
		err = rp.run()
		return rp, time.Since(t).Seconds(), err
	}
	err = timeLoop(1, o.seconds, func() error {
		_, wallOff, err := replayOnce(nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		rp, wallOn, err := replayOnce(tr)
		if err != nil {
			return err
		}
		ferr := rp.fidelity(s)
		r.check("replay-fidelity", ferr == nil, "%v", ferr)
		return finishTrace(r, o, tr, &rp.n, prof, wallOn, wallOff)
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Figure 3 at machine scale: the releaser's write must invalidate
// procs-1 shared copies before the release under Definition 1, while
// the Section 5.3 implementation (WO-Def2) releases at once.
var fig3Policies = []policy.Kind{policy.WODef1, policy.WODef2}

func fig3Config(pol policy.Kind) machine.Config {
	return machine.Config{Policy: pol, Topology: machine.TopoMesh, Caches: true}
}

type fig3State struct {
	prog     *program.Program
	pool     *machine.Pool
	refFinal map[mem.Addr]mem.Value
}

// setupFig3 builds the program and the pool, runs the SC reference on a
// fresh machine, and discards one cold pooled run per policy.
func setupFig3(o options) (*fig3State, error) {
	st := &fig3State{prog: workload.Fig3Scaled(size(o, 256, 16)), pool: machine.NewPool()}
	ref, err := machine.Run(st.prog, fig3Config(policy.SC), o.seed)
	if err != nil {
		return nil, fmt.Errorf("SC reference: %w", err)
	}
	st.refFinal = ref.Result.Final
	for _, pol := range fig3Policies {
		if _, err := st.pool.RunPooled(st.prog, fig3Config(pol), o.seed); err != nil {
			return nil, fmt.Errorf("cold %v run: %w", pol, err)
		}
	}
	return st, nil
}

// sameFinal compares final memory states; an absent address reads 0.
func sameFinal(a, b map[mem.Addr]mem.Value) bool {
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	for k, v := range b {
		if a[k] != v {
			return false
		}
	}
	return true
}

// releaseWait is the releaser's Definition 1 wait: drain-pre-sync plus
// sync-global stall cycles on processor 0.
func releaseWait(s *machine.Stats) uint64 {
	return s.Procs[0].Stall[cpu.DrainPreSync] + s.Procs[0].Stall[cpu.SyncGlobalWait]
}

// fig3Gates checks one run: it ended in the SC reference's final state,
// its modelled statistics repeat exactly, and only Definition 1 waits at
// the release.
func fig3Gates(r *report, st *fig3State, pol policy.Kind, res *machine.RunResult, fingerprints map[policy.Kind]string) {
	r.check("final-state", sameFinal(res.Result.Final, st.refFinal), "%v final state differs from the SC reference", pol)
	fp := fmt.Sprint(res.Stats.Cycles, res.Stats.Procs, res.Stats.Caches, res.Stats.Dirs, res.Stats.Net)
	if fingerprints[pol] == "" {
		fingerprints[pol] = fp
	}
	r.check("stats-identical", fp == fingerprints[pol], "%v modelled statistics changed between repetitions", pol)
	w := releaseWait(&res.Stats)
	r.check("release-wait", (pol == policy.WODef2) == (w == 0), "%v release wait %d cycles", pol, w)
}

func measureFig3(o options) (*report, error) {
	r := newReport(o)
	h, err := newHostRef()
	if err != nil {
		return nil, err
	}
	defer h.close()
	var st *fig3State
	for i := 0; i < setupReps; i++ {
		raw, scaled, err := h.timed(func() (err error) {
			st, err = setupFig3(o)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.addTimed("setup_s", "s", raw, scaled)
	}

	fingerprints := map[policy.Kind]string{}
	err = timeLoop(o.reps, o.seconds, func() error {
		var results [2]*machine.RunResult
		var m0, m1 runtime.MemStats
		raw, scaled, err := h.timed(func() error {
			runtime.ReadMemStats(&m0)
			defer runtime.ReadMemStats(&m1)
			for i, pol := range fig3Policies {
				res, err := st.pool.RunPooled(st.prog, fig3Config(pol), o.seed)
				if err != nil {
					return fmt.Errorf("%v: %w", pol, err)
				}
				results[i] = res
			}
			return nil
		})
		if err != nil {
			return err
		}
		var cycles uint64
		for i, res := range results {
			fig3Gates(r, st, fig3Policies[i], res, fingerprints)
			cycles += res.Stats.Cycles
		}
		r.attempted += len(results)
		r.addTimed("sims_per_s", "1/s", float64(len(results))/raw, float64(len(results))/scaled)
		r.add("alloc_mb", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		r.add("sim_cycles", "cycles", float64(cycles))
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.finishMeasure(h)
	return r, nil
}

// traceFig3 gates and profiles a fixed number of Def1/Def2 pairs, then
// replays them untraced and traced, pass after pass, until o.seconds
// have passed.
func traceFig3(o options) (*report, error) {
	r := newReport(o)
	st, err := setupFig3(o)
	if err != nil {
		return nil, err
	}
	pairs := size(o, 4, 1)
	fingerprints := map[policy.Kind]string{}
	// Only a pass of its own is gated, keeping the gates' cost out of the
	// profile and the two timed passes.
	replayOnce := func(tr *tracer, n *counts, gated bool) (float64, error) {
		sr := &simRunner{pool: st.pool, tr: tr, counts: &n.sim}
		runtime.GC()
		t := time.Now()
		for i := 0; i < pairs*len(fig3Policies); i++ {
			pol := fig3Policies[i%len(fig3Policies)]
			tr.request("sim", i)
			res, err := sr.run(st.prog, fig3Config(pol), o.seed)
			tr.end()
			if err != nil {
				return 0, fmt.Errorf("%v: %w", pol, err)
			}
			if gated {
				fig3Gates(r, st, pol, res, fingerprints)
				r.attempted++
			}
		}
		return time.Since(t).Seconds(), nil
	}

	if _, err := replayOnce(nil, &counts{}, true); err != nil {
		return nil, err
	}
	prof, err := profile(filepath.Join(o.workdir, o.workload+".pprof"), func() error {
		_, err := replayOnce(nil, &counts{}, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = timeLoop(1, o.seconds, func() error {
		wallOff, err := replayOnce(nil, &counts{}, false)
		if err != nil {
			return err
		}
		tr := newTracer()
		var n counts
		wallOn, err := replayOnce(tr, &n, false)
		if err != nil {
			return err
		}
		return finishTrace(r, o, tr, &n, prof, wallOn, wallOff)
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}
