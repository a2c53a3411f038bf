package machine

import (
	"fmt"
	"testing"

	"weakorder/internal/cache"
	"weakorder/internal/faults"
	"weakorder/internal/gen"
	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/scmatch"
	"weakorder/internal/workload"
)

// drfWorkloads returns DRF0 programs whose final memory state is the
// same in every sequentially consistent execution (counters incremented
// under mutual exclusion, flag handoffs with fixed last values), so the
// final state is invariant under any timing perturbation — the right
// equivalence for directory modes and topologies that legitimately
// change latencies.
func drfWorkloads() []*program.Program {
	return []*program.Program{
		litmus.CriticalSection(4, 2),
		litmus.TestAndTAS(3, 2),
		litmus.Barrier(4),
		workload.ProducerConsumer(2, 2),
		workload.DataPerSync(3, 2, 2),
		workload.Fig3Scaled(6),
	}
}

// sumOverflows totals limited-pointer overflow events across directories.
func sumOverflows(res *RunResult) uint64 {
	var n uint64
	for i := range res.Stats.Dirs {
		n += res.Stats.Dirs[i].PtrOverflows
	}
	return n
}

// A limited-pointer directory that never overflows its pointer set is
// the exact same protocol as the full-map directory, so every litmus
// test and a generated racy/race-free mix must produce byte-identical
// runs: same traces, commit cycles, stats, and results.
func TestDirModeLimitedNoOverflowByteIdentical(t *testing.T) {
	progs := append(litmus.All(),
		gen.RaceFree(gen.RaceFreeConfig{
			Procs: 3, Locks: 2, SharedPerLock: 2, Sections: 2, OpsPerSection: 2,
		}, 11),
		gen.Racy(gen.RacyConfig{Procs: 3, Vars: 4, OpsPerProc: 4, SyncFraction: 4}, 12),
	)
	for _, pol := range []policy.Kind{policy.WODef1, policy.WODef2} {
		for _, p := range progs {
			full := Config{Policy: pol, Topology: TopoNetwork, Caches: true}
			limited := full
			limited.DirMode = cache.DirLimitedPtr
			limited.DirPointers = 8 // >= any sharer count in these programs
			label := fmt.Sprintf("%s/%s", p.Name, pol)

			want := mustRun(t, p, full, 21)
			got := mustRun(t, p, limited, 21)
			if n := sumOverflows(got); n != 0 {
				t.Fatalf("%s: %d pointer overflows with headroom for every sharer", label, n)
			}
			assertIdentical(t, label+" (limited vs full-map)", got, want)
		}
	}
}

// Overflowing limited-pointer and coarse-vector directories over-
// invalidate, so timing shifts — but coherence and weak ordering must
// survive: on the deterministic-final-state DRF workloads every mode
// must reach the full-map directory's final memory, and somewhere in
// the suite the limited configuration must actually overflow.
func TestDirModeOverflowFinalStateEquivalence(t *testing.T) {
	overflowed := false
	for _, p := range drfWorkloads() {
		base := Config{Policy: policy.WODef2, Topology: TopoNetwork, Caches: true}
		want := mustRun(t, p, base, 33)

		limited := base
		limited.DirMode = cache.DirLimitedPtr
		limited.DirPointers = 1
		coarse := base
		coarse.DirMode = cache.DirCoarseVector
		coarse.DirCoarseness = 2

		for _, mode := range []struct {
			name string
			cfg  Config
		}{{"limited1", limited}, {"coarse2", coarse}} {
			got := mustRun(t, p, mode.cfg, 33)
			if !finalStateEqual(want.Result, got.Result) {
				t.Errorf("%s/%s: final state diverged from full-map\n full    %v\n scaled  %v",
					p.Name, mode.name, want.Result.Final, got.Result.Final)
			}
			if mode.name == "limited1" && sumOverflows(got) > 0 {
				overflowed = true
			}
		}
	}
	if !overflowed {
		t.Error("single-pointer directory never overflowed on any workload — test exercises nothing")
	}
}

// finalStateEqual compares final memory over the union of touched
// addresses, defaulting absent entries to zero.
func finalStateEqual(a, b mem.Result) bool {
	for addr, v := range a.Final {
		if b.Final[addr] != v {
			return false
		}
	}
	for addr, v := range b.Final {
		if a.Final[addr] != v {
			return false
		}
	}
	return true
}

// On generated race-free programs the final state is timing-dependent
// (lock acquisition order picks the last writer), so the differential
// for overflowing directory modes is the DRF0 guarantee itself: the
// observed execution must still appear sequentially consistent.
func TestDirModeOverflowGeneratedAppearsSC(t *testing.T) {
	cfgs := gen.RaceFreeConfig{
		Procs: 6, Locks: 2, SharedPerLock: 2, Sections: 1, OpsPerSection: 2,
	}
	for seed := int64(1); seed <= 3; seed++ {
		p := gen.RaceFree(cfgs, seed)
		for _, mode := range []struct {
			name string
			cfg  Config
		}{
			{"limited2", Config{Policy: policy.WODef2, Topology: TopoMesh, Caches: true,
				DirMode: cache.DirLimitedPtr, DirPointers: 2}},
			{"coarse2", Config{Policy: policy.WODef2, Topology: TopoMesh, Caches: true,
				DirMode: cache.DirCoarseVector, DirCoarseness: 2}},
		} {
			res := mustRun(t, p, mode.cfg, seed)
			m, err := scmatch.Matches(p, res.Result, scmatch.Config{})
			if err != nil {
				t.Fatalf("%s/%s: scmatch: %v", p.Name, mode.name, err)
			}
			if !m.OK {
				t.Errorf("%s/%s: DRF0 program did not appear SC under overflowing directory", p.Name, mode.name)
			}
		}
	}
}

// A 72-thread program is past the 64-thread limit of ideal's sleep-set
// reduction, so the search takes the naive observation-filtered walk:
// the DRF0 Figure 3 scenario on the Section 5.3 machine must still be
// found to appear SC, within the default budget.
func TestMatchesPastSleepSetLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("72-thread naive search")
	}
	p := workload.Fig3Scaled(72)
	res := mustRun(t, p, Config{Policy: policy.WODef2, Topology: TopoMesh, Caches: true}, 1)
	m, err := scmatch.Matches(p, res.Result, scmatch.Config{})
	if err != nil {
		t.Fatalf("%s: scmatch: %v", p.Name, err)
	}
	if !m.OK {
		t.Errorf("%s: DRF0 program did not appear SC on WO-Def2 (%d states)", p.Name, m.States)
	}
}

// The mesh is just another interconnect: under the same weak-ordering
// policy — and with the mild fault plan stressing the retry protocol —
// the DRF workloads must reach the same final state as the flat
// network, and a mesh run must be bit-reproducible across repeats.
func TestMeshVsFlatOutcomeEquivalence(t *testing.T) {
	mild := faults.Mild()
	for _, p := range drfWorkloads() {
		flat := Config{Policy: policy.WODef2, Topology: TopoNetwork, Caches: true, Faults: &mild}
		mesh := flat
		mesh.Topology = TopoMesh

		want := mustRun(t, p, flat, 5)
		got := mustRun(t, p, mesh, 5)
		if !finalStateEqual(want.Result, got.Result) {
			t.Errorf("%s: mesh final state diverged from flat network\n flat %v\n mesh %v",
				p.Name, want.Result.Final, got.Result.Final)
		}
		again := mustRun(t, p, mesh, 5)
		assertIdentical(t, p.Name+" (mesh repeat)", again, got)
	}
}

// The scaled-machine claim: once a pooled 256-processor machine has
// reached steady state, a whole run — reset, thousands of simulated
// cycles, drain — performs only the O(program) result-construction
// allocations, none proportional to cycles or processors. A single
// allocation per cycle anywhere in the stepping loop would exceed the
// budget hundreds of times over; fast-forward must not change the
// count (the slow path ticks every cycle, so it is the stronger half).
func TestMachineStepAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("256-proc alloc measurement")
	}
	prog := workload.Fig3Scaled(16)
	for _, ff := range []struct {
		name    string
		disable bool
	}{{"fastforward", false}, {"everycycle", true}} {
		t.Run(ff.name, func(t *testing.T) {
			cfg := Config{
				Policy: policy.WODef2, Topology: TopoMesh, Caches: true,
				ExtraProcs:         256 - prog.NumThreads(),
				disableFastForward: ff.disable,
			}
			pool := NewPool()
			var cycles uint64
			for i := 0; i < 3; i++ { // warm pool, traces, free lists
				res, err := pool.RunPooled(prog, cfg, 9)
				if err != nil {
					t.Fatal(err)
				}
				cycles = res.Stats.Cycles
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := pool.RunPooled(prog, cfg, 9); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("256 procs, %d cycles: %.1f allocs/run", cycles, allocs)
			if budget := float64(cycles) / 4; allocs > budget {
				t.Errorf("steady-state run allocated %.1f times (budget %.0f for %d cycles): stepping loop is allocating",
					allocs, budget, cycles)
			}
		})
	}
}
