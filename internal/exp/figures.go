package exp

import (
	"fmt"

	"weakorder/internal/drf"
	"weakorder/internal/hb"
	"weakorder/internal/litmus"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
	"weakorder/internal/runner"
	"weakorder/internal/scmatch"
	"weakorder/internal/vclock"
	"weakorder/internal/workload"
)

// Figure1Row is one (configuration, policy) cell of the Figure 1 study.
type Figure1Row struct {
	Config     machine.Config
	Runs       int
	Violations int // runs producing the forbidden both-zero outcome
	NonSC      int // runs whose full result matches no SC execution
}

// Figure1 reproduces the paper's Figure 1: the Dekker program run on all
// four system classes (bus/network × no-cache/caches), under the
// unconstrained hardware that motivates the paper and under the
// sequentially consistent baseline. Relaxed hardware exhibits the
// forbidden outcome ("both processors killed") on every class; SC
// hardware never does.
func Figure1(seeds int) ([]Figure1Row, *Table, error) {
	prog := litmus.Dekker()
	var rows []Figure1Row
	type sys struct {
		topo   machine.Topology
		caches bool
		snoop  bool
	}
	systems := []sys{
		{machine.TopoBus, false, false},
		{machine.TopoBus, true, false},
		{machine.TopoBus, true, true}, // authentic snoopy bus+caches row
		{machine.TopoNetwork, false, false},
		{machine.TopoNetwork, true, false},
	}
	for _, sy := range systems {
		for _, pol := range []policy.Kind{policy.Unconstrained, policy.SC} {
			cfg := machine.Config{Policy: pol, Topology: sy.topo, Caches: sy.caches, Snoop: sy.snoop, NetJitter: 20}
			rep, err := runner.RunOn(prog, cfg, runner.Config{Seeds: seeds, Forbidden: litmus.DekkerForbidden})
			if err != nil {
				return nil, nil, fmt.Errorf("figure1 %s: %w", cfg.Name(), err)
			}
			rows = append(rows, Figure1Row{Config: cfg, Runs: rep.Runs, Violations: rep.ForbiddenRuns, NonSC: rep.NonSCRuns})
		}
	}

	t := &Table{
		ID:      "Figure 1",
		Title:   "Dekker-style SC violation across the four system classes",
		Headers: []string{"system", "policy", "runs", "both-zero", "non-SC results"},
		Notes: []string{
			"both-zero = the paper's forbidden outcome (both processors killed)",
			"unconstrained hardware violates SC on every class; SC hardware never does",
		},
	}
	for _, r := range rows {
		label := map[bool]string{true: "caches", false: "nocache"}[r.Config.Caches]
		if r.Config.Snoop {
			label = "snoop"
		}
		t.AddRow(fmt.Sprintf("%v+%s", r.Config.Topology, label), r.Config.Policy.String(), r.Runs, r.Violations, r.NonSC)
	}
	return rows, t, nil
}

// Figure2Row is one execution's verdict under one checker and mode.
type Figure2Row struct {
	Execution string
	Mode      hb.SyncMode
	Checker   string
	Races     int
	Pairs     []string
}

// Figure2 reproduces the paper's Figure 2: the hand-coded idealized
// executions, one obeying DRF0 (all conflicting accesses ordered by
// happens-before through synchronization chains) and one violating it.
// Both the exhaustive happens-before analysis and the vector-clock
// detector are applied.
func Figure2() ([]Figure2Row, *Table) {
	var rows []Figure2Row
	execs := []struct {
		name string
		e    *mem.Execution
	}{
		{"Figure 2(a)", litmus.Figure2a()},
		{"Figure 2(b)", litmus.Figure2b()},
	}
	for _, ex := range execs {
		for _, mode := range []hb.SyncMode{hb.SyncAll, hb.SyncWriterOrdered, hb.SyncPairedRA} {
			hbRaces := drf.CheckExecution(ex.e, nil, mode)
			row := Figure2Row{Execution: ex.name, Mode: mode, Checker: "happens-before", Races: len(hbRaces)}
			for _, r := range hbRaces {
				row.Pairs = append(row.Pairs, fmt.Sprintf("%v||%v", r.A.ID(), r.B.ID()))
			}
			rows = append(rows, row)

			vcRaces := vclock.CheckExecution(ex.e, mode)
			rows = append(rows, Figure2Row{
				Execution: ex.name, Mode: mode, Checker: "vector-clock", Races: len(vcRaces),
			})
		}
	}
	t := &Table{
		ID:      "Figure 2",
		Title:   "DRF0 verdicts for the example and counter-example executions",
		Headers: []string{"execution", "model", "checker", "races", "racing pairs"},
		Notes: []string{
			"(a) obeys DRF0: every conflicting pair is ordered by hb = (po ∪ so)+",
			"(b) violates DRF0: P0/P1 race on y, P2/P4 (and P3/P4) race on z",
		},
	}
	for _, r := range rows {
		pairs := ""
		if len(r.Pairs) > 0 {
			pairs = fmt.Sprint(r.Pairs)
		}
		t.AddRow(r.Execution, r.Mode.String(), r.Checker, r.Races, pairs)
	}
	return rows, t
}

// Figure3Row is one policy's stall profile on the Figure 3 scenario.
type Figure3Row struct {
	Policy          policy.Kind
	ReleaserStall   uint64 // P0's synchronization stall cycles
	AcquirerStall   uint64 // P1's synchronization stall cycles
	TotalCycles     uint64
	DeferredForward uint64 // forwards deferred by P0's reserve bit
	AppearsSC       bool
}

// Figure3 reproduces the paper's Figure 3 analysis: on the
// release/acquire scenario with a slow write of x, Definition 1 stalls
// the releasing processor P0 at the Unset until W(x) is globally
// performed, while the new implementation lets P0 proceed at commit; the
// acquiring processor P1 stalls under both.
func Figure3(seed int64) ([]Figure3Row, *Table, error) {
	prog := litmus.Figure3()
	base := machine.Config{
		Topology:  machine.TopoNetwork,
		Caches:    true,
		NetBase:   40,
		NetJitter: 10,
	}
	var rows []Figure3Row
	for _, pol := range []policy.Kind{policy.SC, policy.WODef1, policy.WODef2, policy.WODef2RO} {
		cfg := base
		cfg.Policy = pol
		res, err := machine.Run(prog, cfg, seed)
		if err != nil {
			return nil, nil, fmt.Errorf("figure3 %v: %w", pol, err)
		}
		m, err := scmatch.Decide(prog, res.Result, scmatch.Config{})
		if err != nil {
			return nil, nil, err
		}
		row := Figure3Row{
			Policy:        pol,
			ReleaserStall: res.Stats.Procs[0].SyncStall(),
			AcquirerStall: res.Stats.Procs[1].SyncStall(),
			TotalCycles:   res.Stats.Cycles,
			AppearsSC:     m.OK,
		}
		if len(res.Stats.Caches) > 0 {
			row.DeferredForward = res.Stats.Caches[0].DeferredFwds
		}
		rows = append(rows, row)
	}
	t := &Table{
		ID:      "Figure 3",
		Title:   "Release/acquire stall comparison (P0 releases s while W(x) is in flight)",
		Headers: []string{"policy", "P0 sync stall", "P1 sync stall", "total cycles", "deferred fwds @P0", "appears SC"},
		Notes: []string{
			"Def.1 stalls P0 at the Unset until W(x) is globally performed",
			"Def.2 w.r.t. DRF0 need never stall P0 there: P1's request waits on P0's reserve bit instead",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Policy.String(), r.ReleaserStall, r.AcquirerStall, r.TotalCycles, r.DeferredForward, r.AppearsSC)
	}
	return rows, t, nil
}

// Figure3ScaledRow is one (procs, policy) cell of the big-machine
// Figure 3 study.
type Figure3ScaledRow struct {
	Procs         int
	Policy        policy.Kind
	ReleaseWait   uint64 // P0's drain-pre-sync + sync-global cycles: the wait for W(x)'s global performance
	ReleaserStall uint64 // P0's total synchronization stall cycles (includes the setup spin-acquires)
	AcquirerStall uint64 // P1's synchronization stall cycles
	TotalCycles   uint64
	DeferredFwds  uint64 // forwards deferred by P0's reserve bit
	Invalidations uint64 // invalidations sent by the directories
}

// Figure3Scaled reruns the Figure 3 release-stall comparison on the
// 2D-mesh machine at each processor count in sizes: procs-1 processors
// share x before the releaser writes it, so the write's global
// performance waits on procs-1 invalidation acknowledgements crossing
// the mesh. Definition 1 makes the releasing processor absorb that wait
// at its release; the Section 5.3 implementation of Definition 2 defers
// the acquirer's forwarded request on the reserve bit instead, keeping
// the releaser's stall independent of machine size.
func Figure3Scaled(seed int64, sizes []int) ([]Figure3ScaledRow, *Table, error) {
	var rows []Figure3ScaledRow
	for _, n := range sizes {
		prog := workload.Fig3Scaled(n)
		for _, pol := range []policy.Kind{policy.WODef1, policy.WODef2} {
			cfg := machine.Config{
				Policy:   pol,
				Topology: machine.TopoMesh,
				Caches:   true,
				Metrics:  true,
			}
			res, err := machine.Run(prog, cfg, seed)
			if err != nil {
				return nil, nil, fmt.Errorf("figure3 scaled %dp %v: %w", n, pol, err)
			}
			c := res.Metrics.Counters
			row := Figure3ScaledRow{
				Procs:         n,
				Policy:        pol,
				ReleaseWait:   c["cpu.0.stall.drain_pre_sync"] + c["cpu.0.stall.sync_global"],
				ReleaserStall: res.Stats.Procs[0].SyncStall(),
				AcquirerStall: res.Stats.Procs[1].SyncStall(),
				TotalCycles:   res.Stats.Cycles,
			}
			if len(res.Stats.Caches) > 0 {
				row.DeferredFwds = res.Stats.Caches[0].DeferredFwds
			}
			for i := range res.Stats.Dirs {
				row.Invalidations += res.Stats.Dirs[i].Invalidations
			}
			rows = append(rows, row)
		}
	}
	t := &Table{
		ID:      "Figure 3 (scaled)",
		Title:   "Release stall vs machine size on the 2D mesh (procs-1 sharers invalidated by the release-guarded write)",
		Headers: []string{"procs", "policy", "P0 release wait", "P0 sync stall", "P1 sync stall", "total cycles", "deferred fwds @P0", "invalidations"},
		Notes: []string{
			"P0 release wait = drain-pre-sync + sync-global at the releaser: Def.1's wait for global performance of prior accesses (charged on every sync access, setup spins included); identically zero under Def.2",
			"the Def.1 minus Def.2 gap in P0 sync stall is the invalidation fan-out crossing the mesh — it grows with the machine, while Def.2 relocates that wait to the acquirer's deferred forward",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Procs, r.Policy.String(), r.ReleaseWait, r.ReleaserStall, r.AcquirerStall, r.TotalCycles, r.DeferredFwds, r.Invalidations)
	}
	return rows, t, nil
}

// Figure3Stalls breaks the Figure 3 stalls down by attributed cause,
// straight from the metrics export (machine.Config.Metrics): where
// Figure3 reports one sync-stall number per processor, this table shows
// *which* wait produced it — the Definition 1 releaser burns cycles in
// drain-pre-sync/sync-global (waiting for W(x) to be globally
// performed), the Section 5.3 releaser does not, and the wait reappears
// on the acquirer side as sync-commit cycles plus the deferral of its
// forwarded request at the releaser's reserved line.
func Figure3Stalls(seed int64) (*Table, error) {
	prog := litmus.Figure3()
	base := machine.Config{
		Topology:  machine.TopoNetwork,
		Caches:    true,
		NetBase:   40,
		NetJitter: 10,
		Metrics:   true,
	}
	t := &Table{
		ID:    "Figure 3 (stall attribution)",
		Title: "Per-cause stall cycles in the Figure 3 scenario (from the metrics export)",
		Headers: []string{"policy", "proc", "drain-pre-sync", "sync-global",
			"sync-commit", "read-wait", "total stall", "deferred cycles @cache"},
		Notes: []string{
			"drain-pre-sync + sync-global at the releaser = the Definition 1 wait for global performance",
			"sync-commit at the acquirer + deferred cycles at the releaser's cache = the same wait relocated by the reserve bit",
		},
	}
	for _, pol := range []policy.Kind{policy.WODef1, policy.WODef2} {
		cfg := base
		cfg.Policy = pol
		res, err := machine.Run(prog, cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("figure3 stalls %v: %w", pol, err)
		}
		c := res.Metrics.Counters
		for p := 0; p < 2; p++ {
			pre := fmt.Sprintf("cpu.%d.stall.", p)
			t.AddRow(pol.String(), fmt.Sprintf("P%d", p),
				c[pre+"drain_pre_sync"], c[pre+"sync_global"],
				c[pre+"sync_commit"], c[pre+"read_wait"],
				c[fmt.Sprintf("cpu.%d.stall_total", p)],
				c[fmt.Sprintf("cache.%d.deferred_cycles", p)])
		}
	}
	return t, nil
}
