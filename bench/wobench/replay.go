package main

import (
	"errors"
	"fmt"

	"weakorder/internal/cache"
	"weakorder/internal/check"
	"weakorder/internal/drf"
	"weakorder/internal/gen"
	"weakorder/internal/hb"
	"weakorder/internal/ideal"
	"weakorder/internal/lang"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/sat"
	"weakorder/internal/scmatch"
)

// The replay re-runs a campaign's pipeline from the layers' public entry
// points so each call can be wrapped in a span; check.Run does the same
// work internally, where the benchmark cannot time it. Program seeds,
// machine seeds, the generator catalog, matrix rows, processor padding,
// directory mode and search budgets must match internal/check exactly,
// or the replay measures a different campaign: the fidelity gate
// compares its counts with the Summary of a real check.Run.
//
// Two differences are deliberate. The replay keeps one oracle entry per
// program instead of check's canonical cache shared by isomorphic
// programs (canonicalization is unexported), so it may enumerate more
// often. And it runs on one goroutine, so spans nest in one timeline.

// Budgets, copied from internal/check (check.go: oracleMemOpsPerThread,
// oracleEnumMaxPaths, oracleMatchMaxStates, drfCheckMaxPaths,
// shrinkMaxCycles, satMaxEvents; the MaxShrinkTries default in
// withDefaults).
const (
	oracleMemOpsPerThread = 16
	oracleEnumMaxPaths    = 200_000
	oracleMatchMaxStates  = 300_000
	drfCheckMaxPaths      = 100_000
	shrinkMaxCycles       = 200_000
	satMaxEvents          = 2048
	maxShrinkTries        = 400
)

// genSpec and generators are copied from internal/check (check.go,
// generators): names, classes, configurations and order.
type genSpec struct {
	name  string
	class string // check.ClassDRF for by-construction generators, "" to decide by checking
	make  func(seed int64) *program.Program
}

func generators() []genSpec {
	return []genSpec{
		{"racefree", check.ClassDRF, func(s int64) *program.Program {
			return gen.RaceFree(gen.RaceFreeConfig{
				Procs: 2, Locks: 1, SharedPerLock: 2, PrivatePerProc: 1,
				Sections: 1, OpsPerSection: 2, PrivateOps: 1,
			}, s)
		}},
		{"racefree-ttas", check.ClassDRF, func(s int64) *program.Program {
			return gen.RaceFree(gen.RaceFreeConfig{
				Procs: 2, Locks: 1, SharedPerLock: 1, PrivatePerProc: 1,
				Sections: 1, OpsPerSection: 1, PrivateOps: 1, TTAS: true,
			}, s)
		}},
		{"handoff", check.ClassDRF, func(s int64) *program.Program {
			return gen.Handoff(gen.HandoffConfig{Stages: 2, Items: 2, Work: 1}, s)
		}},
		{"racy", "", func(s int64) *program.Program {
			return gen.Racy(gen.RacyConfig{Procs: 2, Vars: 3, OpsPerProc: 5, SyncFraction: 4}, s)
		}},
	}
}

// mix64 and deriveSeed are copied from internal/check (check.go).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func deriveSeed(campaign int64, parts ...uint64) int64 {
	x := mix64(uint64(campaign))
	for _, p := range parts {
		x = mix64(x ^ p)
	}
	return int64(x >> 1)
}

// genSeed and machineSeed name the seed streams of internal/check
// (worker.go, runProgram).
func genSeed(campaign int64, idx int) int64 { return deriveSeed(campaign, uint64(idx), 0x67656e) }

func machineSeed(campaign int64, idx, cfgIdx, s int) int64 {
	return deriveSeed(campaign, uint64(idx), uint64(cfgIdx), uint64(s), 0x5eed5)
}

// campaignMatrix expands a campaign's machine configurations the way
// check.Run does (check.go, Run): check.Matrix, then the directory mode
// on every cached row.
func campaignMatrix(cfg check.CampaignConfig) []machine.Config {
	m := check.Matrix(cfg.Policies, cfg.Topologies)
	for i := range m {
		if m[i].Caches {
			m[i].DirMode = cfg.DirMode
		}
	}
	return m
}

// violationKind and isWeaklyOrdered are copied from internal/check
// (worker.go).
func violationKind(class string, pol policy.Kind, appearsSC bool) string {
	if appearsSC {
		return ""
	}
	switch {
	case pol == policy.SC:
		return check.KindSCPolicy
	case class == check.ClassDRF && isWeaklyOrdered(pol):
		return check.KindDefinition2
	default:
		return ""
	}
}

func isWeaklyOrdered(pol policy.Kind) bool {
	switch pol {
	case policy.WODef1, policy.WODef2, policy.WODef2RO:
		return true
	}
	return false
}

// describeConfig is copied from internal/check (report.go).
func describeConfig(cfg machine.Config) check.ConfigDesc {
	d := check.ConfigDesc{
		Policy:     cfg.Policy.String(),
		Topology:   cfg.Topology.String(),
		Caches:     cfg.Caches,
		NetJitter:  int64(cfg.NetJitter),
		ExtraProcs: cfg.ExtraProcs,
		Faults:     cfg.Faults,
	}
	if cfg.DirMode != cache.DirFullMap {
		d.DirMode = cfg.DirMode.String()
	}
	return d
}

func instructionCount(p *program.Program) int {
	n := 0
	for i := range p.Threads {
		n += len(p.Threads[i].Instrs)
	}
	return n
}

// counts are the replay's per-layer work counters. The first group
// mirrors Summary fields, for the fidelity gate.
type counts struct {
	sims, l1Hits                         int
	satDecided, satAccepted, satRejected int
	satFallbacks                         map[string]int
	violations                           int

	genCalls, keyCalls, satCalls             int
	drfCalls, drfRacy                        int
	idealCalls, idealSteps, idealIncomplete  int
	scmatchCalls, scmatchBudget              int
	shrinkCalls, shrinkTries, shrinkAccepted int
	corpusCalls                              int
	sim                                      simCounts
}

// oracleEntry is one program's appears-SC state, as in internal/check
// (check.go, oracleEntry) minus the sharing between isomorphic programs.
type oracleEntry struct {
	enumerated bool
	outcomes   map[string]bool
	complete   bool
	memo       map[string]bool
}

// replay runs one campaign configuration through the traced pipeline.
type replay struct {
	cfg    check.CampaignConfig
	matrix []machine.Config
	tr     *tracer
	pool   *machine.Pool
	sim    *simRunner
	n      counts
}

func newReplay(cfg check.CampaignConfig, tr *tracer) *replay {
	r := &replay{cfg: cfg, matrix: campaignMatrix(cfg), tr: tr, pool: machine.NewPool()}
	r.n.satFallbacks = map[string]int{}
	r.sim = &simRunner{pool: r.pool, tr: tr, counts: &r.n.sim}
	return r
}

func (r *replay) run() error {
	for idx := 0; idx < r.cfg.Programs; idx++ {
		r.tr.request("program", idx)
		err := r.program(idx)
		r.tr.end()
		if err != nil {
			return fmt.Errorf("replay program %d: %w", idx, err)
		}
	}
	return nil
}

// program mirrors internal/check's runProgram and checkOne (worker.go).
func (r *replay) program(idx int) error {
	specs := generators()
	spec := specs[idx%len(specs)]
	gseed := genSeed(r.cfg.Seed, idx)

	r.tr.begin("gen")
	prog := spec.make(gseed)
	r.tr.end()
	r.n.genCalls++

	class := spec.class
	if class == "" {
		class = check.ClassRacy
		if r.isDRF(prog) {
			class = check.ClassDRF
		}
	}

	entry := &oracleEntry{outcomes: map[string]bool{}, memo: map[string]bool{}}
	l1 := make(map[string]bool, 8)
	for cfgIdx, mcfg := range r.matrix {
		if extra := r.cfg.Procs - prog.NumThreads(); extra > 0 {
			mcfg.ExtraProcs = extra
		}
		for s := 0; s < r.cfg.SeedsPerConfig; s++ {
			mseed := machineSeed(r.cfg.Seed, idx, cfgIdx, s)
			res, err := r.sim.run(prog, mcfg, mseed)
			if err != nil {
				return err
			}
			r.n.sims++
			if r.cfg.Fault != nil {
				r.cfg.Fault(mcfg, prog, res)
			}
			key := r.key(res.Result)
			sc, hit := l1[key]
			if hit {
				r.n.l1Hits++
			} else {
				r.tr.begin("sat")
				d := sat.Decide(prog, res.Result, sat.Config{MaxEvents: satMaxEvents})
				r.tr.end()
				r.n.satCalls++
				if d.Verdict != sat.Fallback {
					sc = d.Verdict == sat.Accepted
					r.n.satDecided++
					if sc {
						r.n.satAccepted++
					} else {
						r.n.satRejected++
					}
				} else {
					if d.Reason != "" {
						r.n.satFallbacks[d.Reason]++
					}
					if sc, err = r.appearsSC(entry, prog, key, res.Result); err != nil {
						return err
					}
				}
				l1[key] = sc
			}
			if kind := violationKind(class, mcfg.Policy, sc); kind != "" {
				if err := r.report(kind, spec, gseed, idx, prog, mcfg, mseed, key); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (r *replay) key(res mem.Result) string {
	r.tr.begin("mem")
	k := res.Key()
	r.tr.end()
	r.n.keyCalls++
	return k
}

// isDRF mirrors internal/check's classify (worker.go) and boundedDRFConfig
// (check.go): a budget overrun classifies as racy.
func (r *replay) isDRF(p *program.Program) bool {
	cfg := drf.CheckConfig{Enum: ideal.EnumConfig{
		Interp:            ideal.Config{MaxMemOpsPerThread: oracleMemOpsPerThread},
		SkipTruncated:     true,
		MaxPaths:          drfCheckMaxPaths,
		Reduce:            true,
		PreserveSyncOrder: true,
	}}
	r.tr.begin("drf")
	v, err := drf.Check(p, hb.SyncAll, cfg)
	r.tr.end()
	r.n.drfCalls++
	if err != nil || !v.DRF {
		r.n.drfRacy++
		return false
	}
	return true
}

// appearsSC mirrors internal/check's oracleEntry.enumerate and appearsSC
// (check.go): enumerate the SC outcome set once, then fall back to the
// result-directed search for keys outside an incomplete set. A search
// over budget conservatively answers SC.
func (r *replay) appearsSC(e *oracleEntry, p *program.Program, key string, res mem.Result) (bool, error) {
	if !e.enumerated {
		e.enumerated = true
		cfg := ideal.EnumConfig{
			Interp:        ideal.Config{MaxMemOpsPerThread: oracleMemOpsPerThread},
			SkipTruncated: true,
			MaxPaths:      oracleEnumMaxPaths,
			Reduce:        true,
		}
		r.tr.begin("ideal")
		stats, err := ideal.Enumerate(p, cfg, func(it *ideal.Interp) error {
			e.outcomes[mem.ResultOf(it.Execution()).Key()] = true
			return nil
		})
		r.tr.end()
		e.complete = err == nil && stats.Truncated == 0
		r.n.idealCalls++
		r.n.idealSteps += stats.Steps
		if !e.complete {
			r.n.idealIncomplete++
		}
	}
	if e.outcomes[key] {
		return true, nil
	}
	if e.complete {
		return false, nil
	}
	if ok, seen := e.memo[key]; seen {
		return ok, nil
	}
	m, err := r.matches(p, res)
	if errors.Is(err, scmatch.ErrBudget) {
		e.memo[key] = true
		return true, nil
	}
	if err != nil {
		return false, err
	}
	e.memo[key] = m.OK
	return m.OK, nil
}

func (r *replay) matches(p *program.Program, res mem.Result) (scmatch.Match, error) {
	r.tr.begin("scmatch")
	m, err := scmatch.Matches(p, res, scmatch.Config{MaxStates: oracleMatchMaxStates})
	r.tr.end()
	r.n.scmatchCalls++
	if errors.Is(err, scmatch.ErrBudget) {
		r.n.scmatchBudget++
	}
	return m, err
}

// report mirrors internal/check's report and violates (worker.go): shrink
// against "still violates under the same config and machine seed", then
// write the reproducer into the corpus directory when one is set.
func (r *replay) report(kind string, spec genSpec, gseed int64, idx int, prog *program.Program,
	mcfg machine.Config, mseed int64, outcome string) error {

	r.n.violations++
	shrinkCfg := mcfg
	shrinkCfg.MaxCycles = shrinkMaxCycles
	pred := func(cand *program.Program) bool {
		r.n.shrinkTries++
		if kind == check.KindDefinition2 && !r.isDRF(cand) {
			return false
		}
		res, err := r.sim.run(cand, shrinkCfg, mseed)
		if err != nil {
			return false
		}
		if r.cfg.Fault != nil {
			r.cfg.Fault(mcfg, cand, res)
		}
		m, err := r.matches(cand, res.Result)
		return err == nil && !m.OK
	}
	r.tr.begin("shrink")
	shrunk, steps := check.Shrink(prog, pred, maxShrinkTries)
	r.tr.end()
	r.n.shrinkCalls++
	r.n.shrinkAccepted += len(steps)
	if r.cfg.CorpusDir == "" {
		return nil
	}
	rep := check.ViolationReport{
		Kind:         kind,
		Program:      shrunk.Name,
		Generator:    spec.name,
		GenSeed:      gseed,
		ProgramIndex: idx,
		Config:       describeConfig(mcfg),
		MachineSeed:  mseed,
		Outcome:      outcome,
		Instructions: instructionCount(shrunk),
		ShrinkSteps:  steps,
		Litmus:       lang.Format(shrunk),
	}
	r.tr.begin("corpus")
	err := check.WriteViolation(r.cfg.CorpusDir, rep)
	r.tr.end()
	r.n.corpusCalls++
	return err
}

// fidelity compares the replay's counts with the Summary of check.Run on
// the same configuration.
func (r *replay) fidelity(s *check.Summary) error {
	type pair struct {
		name        string
		run, replay int
	}
	for _, p := range []pair{
		{"sims", s.Sims, r.n.sims},
		{"l1Hits", s.Oracle.L1Hits, r.n.l1Hits},
		{"satDecided", s.Oracle.SatDecided, r.n.satDecided},
		{"satAccepted", s.Oracle.SatAccepted, r.n.satAccepted},
		{"satRejected", s.Oracle.SatRejected, r.n.satRejected},
		{"violations", len(s.Violations), r.n.violations},
	} {
		if p.run != p.replay {
			return fmt.Errorf("%s: check.Run %d, replay %d", p.name, p.run, p.replay)
		}
	}
	if len(s.Oracle.SatFallbackReasons) != len(r.n.satFallbacks) {
		return fmt.Errorf("satFallbackReasons: check.Run %v, replay %v", s.Oracle.SatFallbackReasons, r.n.satFallbacks)
	}
	for reason, n := range s.Oracle.SatFallbackReasons {
		if r.n.satFallbacks[reason] != n {
			return fmt.Errorf("satFallbackReasons: check.Run %v, replay %v", s.Oracle.SatFallbackReasons, r.n.satFallbacks)
		}
	}
	return nil
}
