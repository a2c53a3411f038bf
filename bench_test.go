// Benchmarks regenerating every figure and table of the reproduction
// (one benchmark family per experiment in DESIGN.md's index), plus
// microbenchmarks of the core engines. Run with:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark logs its table once, so `-bench -v` doubles
// as a report generator; cmd/figures prints the full-size versions.
package weakorder_test

import (
	"fmt"
	"maps"
	"sync"
	"testing"

	"weakorder"
	"weakorder/internal/check"
	"weakorder/internal/exp"
	"weakorder/internal/gen"
	"weakorder/internal/hb"
	"weakorder/internal/ideal"
	"weakorder/internal/litmus"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/sat"
	"weakorder/internal/scmatch"
	"weakorder/internal/vclock"
	"weakorder/internal/workload"
)

// logOnce logs a table on the first iteration only.
func logOnce(b *testing.B, once *sync.Once, t *exp.Table) {
	once.Do(func() { b.Log("\n" + t.String()) })
}

// ---------------------------------------------------------------------------
// Experiment regeneration benchmarks (the paper's figures + added tables).

var fig1Once sync.Once

func BenchmarkFigure1Dekker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := exp.Figure1(6)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, &fig1Once, t)
	}
}

var fig2Once sync.Once

func BenchmarkFigure2DRF0Verdicts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t := exp.Figure2()
		logOnce(b, &fig2Once, t)
	}
}

var fig3Once sync.Once

func BenchmarkFigure3StallComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := exp.Figure3(int64(i) + 7)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, &fig3Once, t)
	}
}

var table1Once sync.Once

func BenchmarkTable1ReleaseStallVsLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := exp.Table1(2)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, &table1Once, t)
	}
}

var table2Once sync.Once

func BenchmarkTable2TestAndTAS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := exp.Table2(2, 2)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, &table2Once, t)
	}
}

var table3Once sync.Once

func BenchmarkTable3PolicyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := exp.Table3(2)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, &table3Once, t)
	}
}

var table4Once sync.Once

func BenchmarkTable4Definition2Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := exp.Table4(2, 2)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, &table4Once, t)
	}
}

var table5Once sync.Once

func BenchmarkTable5SubstrateComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := exp.Table5(2)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, &table5Once, t)
	}
}

var table6Once sync.Once

func BenchmarkTable6LitmusMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := exp.Table6(4)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, &table6Once, t)
	}
}

// BenchmarkCheckCampaign measures differential-campaign throughput (see
// internal/check): generation, the machine matrix, and the per-program
// SC oracle together. Workers sub-benchmarks expose pool scaling; the
// summary must be identical across them (pinned by the package's own
// determinism test), so the only thing varying is wall-clock.
func BenchmarkCheckCampaign(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(map[int]string{1: "workers1", 4: "workers4", 8: "workers8"}[workers], func(b *testing.B) {
			sims := 0
			for i := 0; i < b.N; i++ {
				s, err := weakorder.Check(weakorder.CampaignConfig{
					Seed:           1,
					Programs:       4,
					Policies:       []weakorder.Policy{policy.SC, policy.WODef2},
					Topologies:     []weakorder.Topology{machine.TopoBus},
					SeedsPerConfig: 1,
					Workers:        workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(s.Violations) != 0 {
					b.Fatalf("clean campaign produced %d violations", len(s.Violations))
				}
				sims += s.Sims
			}
			b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
		})
	}
	// The big-machine campaign row: every generated program padded to 64
	// processors on the mesh with a limited-pointer directory — the
	// configuration the scaling work exists for, exercising idle-proc
	// fast-forward and bounded directory state through the pooled path.
	b.Run("procs64mesh", func(b *testing.B) {
		sims := 0
		for i := 0; i < b.N; i++ {
			s, err := weakorder.Check(weakorder.CampaignConfig{
				Seed:           1,
				Programs:       4,
				Policies:       []weakorder.Policy{policy.SC, policy.WODef2},
				Topologies:     []weakorder.Topology{machine.TopoMesh},
				SeedsPerConfig: 1,
				Workers:        4,
				Procs:          64,
				DirMode:        weakorder.DirLimitedPtr,
			})
			if err != nil {
				b.Fatal(err)
			}
			if len(s.Violations) != 0 {
				b.Fatalf("clean campaign produced %d violations", len(s.Violations))
			}
			sims += s.Sims
		}
		b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
	})
	// The violation path the clean rows never reach: an injected
	// Definition 2 fault makes every DRF program violate, so each op
	// shrinks every violation (probe simulations, DRF0 re-checks of the
	// candidates, oracle decisions) and writes its reproducer.
	b.Run("shrink", func(b *testing.B) {
		dir := b.TempDir()
		violations := 0
		for i := 0; i < b.N; i++ {
			s, err := weakorder.Check(weakorder.CampaignConfig{
				Seed:           1,
				Programs:       4,
				Policies:       []weakorder.Policy{policy.WODef2, policy.SC},
				Topologies:     []weakorder.Topology{machine.TopoBus, machine.TopoNetwork},
				SeedsPerConfig: 2,
				Workers:        1,
				CorpusDir:      dir,
				Fault:          check.CorruptReadFault(policy.WODef2),
			})
			if err != nil {
				b.Fatal(err)
			}
			if len(s.Violations) == 0 {
				b.Fatal("the injected fault produced no violations")
			}
			violations += len(s.Violations)
		}
		b.ReportMetric(float64(violations)/float64(b.N), "violations/op")
	})
}

// BenchmarkFaultMatrix measures the fault injector's overhead and the
// retry protocol's cost across the preset plans on the critical-section
// workload: "none" is the baseline (injector unarmed), mild/severe add
// drops, duplicates, and delays that the hardened protocol must absorb.
// Runs go through a machine.Pool, as the campaign's hot loop does, so
// allocs/op reflects steady-state simulation cost, not machine assembly.
func BenchmarkFaultMatrix(b *testing.B) {
	prog := litmus.CriticalSection(3, 2)
	for _, preset := range []string{"none", "mild", "severe"} {
		b.Run(preset, func(b *testing.B) {
			plan, err := weakorder.ParseFaultPlan(preset)
			if err != nil {
				b.Fatal(err)
			}
			cfg := machine.Config{Policy: policy.WODef2, Topology: machine.TopoNetwork, Caches: true}
			if plan.Enabled() {
				cfg.Faults = &plan
			}
			pool := machine.NewPool()
			var cycles, retries uint64
			for i := 0; i < b.N; i++ {
				res, err := pool.RunPooled(prog, cfg, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Stats.Cycles
				for j := range res.Stats.Caches {
					retries += res.Stats.Caches[j].Retries
				}
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/op")
			b.ReportMetric(float64(retries)/float64(b.N), "retries/op")
		})
	}
}

// BenchmarkMachineStep measures steady-state pooled simulation at
// machine scale: the scaled Figure-3 workload (one releaser
// invalidating procs-1 sharers through a release) on the 2D mesh at 16,
// 64, and 256 processors. ns/proccycle is the per-processor-cycle
// stepping cost — the number the struct-of-arrays cache/directory
// storage keeps flat as the machine grows — and allocs/op after the
// first iteration is the O(program) result-construction constant, not
// O(cycles x procs).
func BenchmarkMachineStep(b *testing.B) {
	for _, procs := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("procs%d", procs), func(b *testing.B) {
			prog := workload.Fig3Scaled(procs)
			cfg := machine.Config{Policy: policy.WODef2, Topology: machine.TopoMesh, Caches: true}
			pool := machine.NewPool()
			if _, err := pool.RunPooled(prog, cfg, 0); err != nil {
				b.Fatal(err) // warm the pool outside the timed region
			}
			b.ResetTimer()
			procCycles := uint64(0)
			for i := 0; i < b.N; i++ {
				res, err := pool.RunPooled(prog, cfg, 0)
				if err != nil {
					b.Fatal(err)
				}
				procCycles += res.Stats.Cycles * uint64(procs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(procCycles), "ns/proccycle")
		})
	}
}

// BenchmarkMachineReuse isolates what machine pooling saves: "fresh"
// assembles the full component graph per run (machine.Run), "pooled"
// resets one machine in place (machine.Pool). Results are byte-identical
// (pinned by TestPooledMachineByteIdentical); only cost differs.
// "pooled-short" runs SB on the bus, 45 cycles a run, 100 runs an op, so
// a pooled run's fixed cost dominates it: a reset that ran math/rand's
// serial Seed again would make it about 2.8x slower.
func BenchmarkMachineReuse(b *testing.B) {
	prog := litmus.CriticalSection(3, 2)
	cfg := machine.Config{Policy: policy.WODef2, Topology: machine.TopoNetwork, Caches: true}
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := machine.Run(prog, cfg, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		pool := machine.NewPool()
		for i := 0; i < b.N; i++ {
			if _, err := pool.RunPooled(prog, cfg, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled-short", func(b *testing.B) {
		const runs = 100 // per op, so that the gate's three ops time a stable amount
		sb := litmus.SB()
		bus := machine.Config{Policy: policy.WODef2, Topology: machine.TopoBus, Caches: true}
		pool := machine.NewPool()
		if _, err := pool.RunPooled(sb, bus, -1); err != nil {
			b.Fatal(err) // warm the pool outside the timed region
		}
		b.ResetTimer()
		for i := 0; i < b.N*runs; i++ {
			if _, err := pool.RunPooled(sb, bus, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*runs), "ns/run")
	})
}

// BenchmarkSnoopMachine measures the snoopy-bus substrate on the
// critical-section workload.
func BenchmarkSnoopMachine(b *testing.B) {
	prog := litmus.CriticalSection(4, 4)
	cfg := machine.Config{Policy: policy.WODef2, Topology: machine.TopoBus, Caches: true, Snoop: true}
	cycles := uint64(0)
	for i := 0; i < b.N; i++ {
		res, err := machine.Run(prog, cfg, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Stats.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/op")
}

// ---------------------------------------------------------------------------
// Ablation benchmarks for DESIGN.md's called-out design choices.

// BenchmarkAblationROSyncCachedVsUncached isolates the Section 6
// implementation choice: cached-shared Tests vs uncached remote reads on
// a contended Test&TestAndSet lock.
func BenchmarkAblationROSyncCachedVsUncached(b *testing.B) {
	prog := litmus.TestAndTASWork(8, 2, 12)
	for _, uncached := range []bool{false, true} {
		name := "cached"
		if uncached {
			name = "uncached"
		}
		b.Run(name, func(b *testing.B) {
			cfg := machine.Config{
				Policy: policy.WODef2RO, Topology: machine.TopoNetwork,
				Caches: true, ROUncachedTest: uncached,
			}
			cycles := uint64(0)
			for i := 0; i < b.N; i++ {
				res, err := machine.Run(prog, cfg, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Stats.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/op")
		})
	}
}

// BenchmarkAblationBusVsNetwork compares interconnects under WO-Def2 on
// the critical-section workload.
func BenchmarkAblationBusVsNetwork(b *testing.B) {
	prog := litmus.CriticalSection(4, 2)
	for _, topo := range []machine.Topology{machine.TopoBus, machine.TopoNetwork} {
		b.Run(topo.String(), func(b *testing.B) {
			cfg := machine.Config{Policy: policy.WODef2, Topology: topo, Caches: true}
			for i := 0; i < b.N; i++ {
				if _, err := machine.Run(prog, cfg, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWriteBufferDepth sweeps the write-buffer depth under
// WO-Def2 on the data-heavy handoff workload.
func BenchmarkAblationWriteBufferDepth(b *testing.B) {
	prog := litmus.Figure3Work(8)
	for _, depth := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "depth1", 4: "depth4", 16: "depth16"}[depth], func(b *testing.B) {
			cfg := machine.Config{
				Policy: policy.WODef2, Topology: machine.TopoNetwork,
				Caches: true, WriteBuffer: depth,
			}
			cycles := uint64(0)
			for i := 0; i < b.N; i++ {
				res, err := machine.Run(prog, cfg, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Stats.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/op")
		})
	}
}

// ---------------------------------------------------------------------------
// Engine microbenchmarks.

func BenchmarkIdealEnumerateDekker(b *testing.B) {
	prog := litmus.Dekker()
	for i := 0; i < b.N; i++ {
		n := 0
		if _, err := ideal.Enumerate(prog, ideal.EnumConfig{}, func(it *ideal.Interp) error {
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIdealEnumeratePOR compares naive exhaustive enumeration with
// the sleep-set partial-order reduction on a mostly-independent
// generated workload. steps/op is the paths-explored metric quoted in
// EXPERIMENTS.md's oracle table: identical outcome sets (pinned by
// TestOracleEquivalenceNaiveVsReduced) at a fraction of the search.
func BenchmarkIdealEnumeratePOR(b *testing.B) {
	prog := gen.Racy(gen.RacyConfig{Procs: 3, Vars: 6, OpsPerProc: 4, SyncFraction: 8}, 7)
	for _, mode := range []struct {
		name   string
		reduce bool
	}{{"naive", false}, {"reduced", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := ideal.EnumConfig{
				Interp:        ideal.Config{MaxMemOpsPerThread: 16},
				SkipTruncated: true,
				Reduce:        mode.reduce,
			}
			steps := 0
			for i := 0; i < b.N; i++ {
				stats, err := ideal.Enumerate(prog, cfg, func(*ideal.Interp) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				steps += stats.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

func BenchmarkIdealRunSeedCriticalSection(b *testing.B) {
	prog := litmus.CriticalSection(4, 4)
	for i := 0; i < b.N; i++ {
		if _, err := ideal.RunSeed(prog, ideal.Config{}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHBBuildAndRaces(b *testing.B) {
	it, err := ideal.RunSeed(litmus.CriticalSection(4, 4), ideal.Config{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	exec := it.Execution()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := hb.BuildAugmented(exec, nil, hb.SyncAll)
		if races := g.Races(); len(races) != 0 {
			b.Fatal("unexpected race")
		}
	}
}

func BenchmarkVectorClockDetector(b *testing.B) {
	it, err := ideal.RunSeed(litmus.CriticalSection(4, 8), ideal.Config{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	exec := it.Execution()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if races := vclock.CheckExecution(exec, hb.SyncAll); len(races) != 0 {
			b.Fatal("unexpected race")
		}
	}
}

func BenchmarkSCMatchOracle(b *testing.B) {
	prog := litmus.CriticalSection(2, 2)
	res, err := machine.Run(prog, machine.Config{
		Policy: policy.WODef2, Topology: machine.TopoNetwork, Caches: true,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := scmatch.Matches(prog, res.Result, scmatch.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if !m.OK {
			b.Fatal("must appear SC")
		}
	}
}

// BenchmarkSatFastPath measures the polynomial appears-SC decision
// stage (internal/sat) against the result-directed search it preempts,
// on the identical query: a campaign-shaped lock program's observed
// machine result, which the fast path fully resolves (lock rf pins down
// through the from-read and coherence-final rules). "search" is the
// campaign's exhaustive fallback for the queries the fast path hands on.
// "campaign" decides a whole campaign's query stream (campaignQueries)
// per op: the mix of sizes, accepts, rejects and fallbacks the campaign
// actually asks.
func BenchmarkSatFastPath(b *testing.B) {
	prog := gen.RaceFree(gen.RaceFreeConfig{
		Procs: 2, Locks: 1, SharedPerLock: 2, PrivatePerProc: 1,
		Sections: 1, OpsPerSection: 2, PrivateOps: 1,
	}, 3)
	res, err := machine.Run(prog, machine.Config{
		Policy: policy.SC, Topology: machine.TopoBus, Caches: true,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := sat.Decide(prog, res.Result, sat.Config{})
			if d.Verdict != sat.Accepted {
				b.Fatalf("must decide accepted, got %s (%s)", d.Verdict, d.Reason)
			}
		}
	})
	b.Run("search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := scmatch.Matches(prog, res.Result, scmatch.Config{})
			if err != nil {
				b.Fatal(err)
			}
			if !m.OK {
				b.Fatal("must appear SC")
			}
		}
	})
	b.Run("campaign", func(b *testing.B) {
		qs, err := campaignQueries()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				sat.Decide(q.prog, q.res, sat.Config{})
			}
		}
		b.ReportMetric(float64(len(qs)), "queries/op")
	})
}

// satQuery is one appears-SC question of a campaign.
type satQuery struct {
	prog *program.Program
	res  mem.Result
}

// campaignQueries collects the query stream of a small
// campaign-ref-shaped campaign: 16 programs; SC, Unconstrained, WO-Def1
// and WO-Def2 on bus and network; two machine seeds per row. It returns
// each program's distinct observed results in the order the campaign's
// verdict memo first sees them. The fault hook sees every result just
// before the campaign keys it; pooled results alias machine buffers, so
// each kept result is copied.
var campaignQueries = sync.OnceValues(func() ([]satQuery, error) {
	var (
		out  []satQuery
		last *program.Program
		seen map[string]bool
	)
	_, err := weakorder.Check(weakorder.CampaignConfig{
		Seed:           1,
		Programs:       16,
		Policies:       []weakorder.Policy{policy.SC, policy.Unconstrained, policy.WODef1, policy.WODef2},
		SeedsPerConfig: 2,
		Workers:        1,
		Fault: func(_ machine.Config, p *program.Program, res *machine.RunResult) {
			if p != last {
				last, seen = p, make(map[string]bool)
			}
			if k := res.Result.Key(); !seen[k] {
				seen[k] = true
				r := mem.Result{Reads: maps.Clone(res.Result.Reads), Final: maps.Clone(res.Result.Final)}
				out = append(out, satQuery{prog: p, res: r})
			}
		},
	})
	return out, err
})

func BenchmarkMachineCriticalSection4p(b *testing.B) {
	prog := litmus.CriticalSection(4, 4)
	cfg := machine.Config{Policy: policy.WODef2, Topology: machine.TopoNetwork, Caches: true}
	ops := uint64(0)
	for i := 0; i < b.N; i++ {
		res, err := machine.Run(prog, cfg, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for j := range res.Stats.Procs {
			ops += res.Stats.Procs[j].MemOps
		}
	}
	b.ReportMetric(float64(ops)/float64(b.N), "memops/run")
}

func BenchmarkMachineSCvsWODef2(b *testing.B) {
	prog := litmus.Barrier(4)
	for _, pol := range []policy.Kind{policy.SC, policy.WODef2} {
		b.Run(pol.String(), func(b *testing.B) {
			cfg := machine.Config{Policy: pol, Topology: machine.TopoNetwork, Caches: true}
			cycles := uint64(0)
			for i := 0; i < b.N; i++ {
				res, err := machine.Run(prog, cfg, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Stats.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/op")
		})
	}
}

// BenchmarkAxiomSC measures the axiomatic engine enumerating the full
// SC outcome set of Dekker (candidate construction + rf/co search +
// constraint evaluation), the declarative counterpart of
// BenchmarkIdealEnumerateDekker's interleaving enumeration. cands/op is
// the number of candidate executions examined per enumeration.
func BenchmarkAxiomSC(b *testing.B) {
	prog := litmus.Dekker()
	sc, err := weakorder.LoadModel("sc")
	if err != nil {
		b.Fatal(err)
	}
	cfg := weakorder.AxiomConfig{MaxMemOpsPerThread: 6}
	cands := 0
	for i := 0; i < b.N; i++ {
		_, st, err := weakorder.AxiomOutcomes(prog, sc, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !st.Complete {
			b.Fatal("axiomatic search incomplete")
		}
		cands += st.Candidates
	}
	b.ReportMetric(float64(cands)/float64(b.N), "cands/op")
}

func BenchmarkDRF0CheckGenerated(b *testing.B) {
	prog := gen.RaceFree(gen.RaceFreeConfig{Procs: 2, Sections: 1, OpsPerSection: 1}, 5)
	for i := 0; i < b.N; i++ {
		v, err := weakorder.CheckDRF0(prog)
		if err != nil {
			b.Fatal(err)
		}
		if !v.DRF {
			b.Fatal("generated program must be DRF")
		}
	}
}

// BenchmarkDRF0CheckCandidates classifies, per op, every candidate one
// shrink sweep offers for a fixed set of generated programs — the DRF0
// re-checks the campaign makes before a shrink candidate may become a
// Definition 2 reproducer. The shapes are the campaign catalog's, with
// a one-item handoff: the catalog's two-item spin handoff offers
// candidates that each take tens of milliseconds and would be the whole
// benchmark. The candidates are collected before the timer with a
// predicate that accepts none; a candidate whose check errors (a
// dropped instruction can leave a local infinite loop) still counts.
// Reports checks/op.
func BenchmarkDRF0CheckCandidates(b *testing.B) {
	var progs []*program.Program
	for seed := int64(0); seed < 4; seed++ {
		progs = append(progs,
			gen.RaceFree(gen.RaceFreeConfig{
				Procs: 2, Locks: 1, SharedPerLock: 2, PrivatePerProc: 1,
				Sections: 1, OpsPerSection: 2, PrivateOps: 1,
			}, seed),
			gen.RaceFree(gen.RaceFreeConfig{
				Procs: 2, Locks: 1, SharedPerLock: 1, PrivatePerProc: 1,
				Sections: 1, OpsPerSection: 1, PrivateOps: 1, TTAS: true,
			}, seed),
			gen.Handoff(gen.HandoffConfig{Stages: 2, Items: 1, Work: 1}, seed),
			gen.Racy(gen.RacyConfig{Procs: 2, Vars: 3, OpsPerProc: 5, SyncFraction: 4}, seed),
		)
	}
	var cands []*program.Program
	for _, p := range progs {
		check.Shrink(p, func(c *program.Program) bool {
			cands = append(cands, c)
			return false
		}, 1<<20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			_, _ = weakorder.CheckDRF0(c)
		}
	}
	b.ReportMetric(float64(len(cands)), "checks/op")
}

func BenchmarkParseAndFormat(b *testing.B) {
	text := weakorder.FormatProgram(litmus.CriticalSection(4, 4))
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		p, err := weakorder.ParseProgram(text)
		if err != nil {
			b.Fatal(err)
		}
		_ = weakorder.FormatProgram(p)
	}
}

// BenchmarkResultKey keys every result of campaignQueries per op: the
// fingerprint the campaign computes for each simulation before its
// verdict memo.
func BenchmarkResultKey(b *testing.B) {
	qs, err := campaignQueries()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if q.res.Key() == "" {
				b.Fatal("empty key")
			}
		}
	}
	b.ReportMetric(float64(len(qs)), "keys/op")
}
