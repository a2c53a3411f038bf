package machine

import (
	"strings"
	"testing"

	"weakorder/internal/faults"
	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/scmatch"
)

// allConfigs returns every legal (topology, caches, policy) combination.
func allConfigs() []Config {
	var out []Config
	for _, topo := range []Topology{TopoBus, TopoNetwork} {
		for _, caches := range []bool{false, true} {
			for _, pol := range policy.All() {
				cfg := Config{Policy: pol, Topology: topo, Caches: caches}
				if cfg.Validate() != nil {
					continue
				}
				out = append(out, cfg)
			}
		}
	}
	return out
}

// ParseTopology inverts String for every topology and names the
// choices when it rejects a spelling.
func TestParseTopology(t *testing.T) {
	for _, topo := range []Topology{TopoBus, TopoNetwork, TopoMesh} {
		if got, err := ParseTopology(topo.String()); err != nil || got != topo {
			t.Errorf("ParseTopology(%q) = %v, %v", topo, got, err)
		}
	}
	_, err := ParseTopology("ring")
	if err == nil || err.Error() != `unknown topology "ring" (want bus, network, or mesh)` {
		t.Errorf("ParseTopology(ring) error = %v", err)
	}
}

func mustRun(t *testing.T, p *program.Program, cfg Config, seed int64) *RunResult {
	t.Helper()
	res, err := Run(p, cfg, seed)
	if err != nil {
		t.Fatalf("%s seed %d: %v", cfg.Name(), seed, err)
	}
	return res
}

func appearsSC(t *testing.T, p *program.Program, r mem.Result) bool {
	t.Helper()
	m, err := scmatch.Matches(p, r, scmatch.Config{})
	if err != nil {
		t.Fatalf("scmatch: %v", err)
	}
	return m.OK
}

func TestSingleProcessorSequentialSemantics(t *testing.T) {
	b := program.NewBuilder("seq")
	x, y := b.Var("x"), b.Var("y")
	b.InitVar("y", 10)
	th := b.Thread()
	th.Load(program.R0, y) // 10
	th.AddImm(program.R0, program.R0, 5)
	th.Store(x, program.R0) // x = 15
	th.Load(program.R1, x)  // 15 (forwarded or from cache)
	th.AddImm(program.R1, program.R1, 1)
	th.Store(y, program.R1)        // y = 16
	th.TAS(program.R2, b.Var("l")) // 0
	p := b.MustBuild()

	for _, cfg := range allConfigs() {
		res := mustRun(t, p, cfg, 1)
		xa, _ := p.AddrOf("x")
		ya, _ := p.AddrOf("y")
		if res.Exec.Final[xa] != 15 || res.Exec.Final[ya] != 16 {
			t.Errorf("%s: final x=%d y=%d, want 15/16", cfg.Name(), res.Exec.Final[xa], res.Exec.Final[ya])
		}
		if got := len(res.Result.Reads); got != 3 {
			t.Errorf("%s: %d reads recorded, want 3", cfg.Name(), got)
		}
	}
}

func TestSCMachineAlwaysAppearsSC(t *testing.T) {
	progs := []*program.Program{
		litmus.Dekker(),
		litmus.DekkerSync(),
		litmus.MessagePassing(),
		litmus.MessagePassingRacy(),
		litmus.LoadBuffering(),
		litmus.IRIW(),
		litmus.Coherence(),
		litmus.CriticalSection(2, 2),
	}
	for _, topo := range []Topology{TopoBus, TopoNetwork} {
		for _, caches := range []bool{false, true} {
			cfg := Config{Policy: policy.SC, Topology: topo, Caches: caches}
			for _, p := range progs {
				for seed := int64(0); seed < 3; seed++ {
					res := mustRun(t, p, cfg, seed)
					if !appearsSC(t, p, res.Result) {
						t.Errorf("%s: SC hardware produced non-SC result on %s (seed %d):\n%v",
							cfg.Name(), p.Name, seed, res.Result)
					}
				}
			}
		}
	}
}

func TestWeaklyOrderedMachinesAppearSCForDRF0Programs(t *testing.T) {
	// The theorem (Definition 2 + Appendix B): hardware meeting the
	// Section 5.1 conditions appears sequentially consistent to DRF0
	// programs. Exercise every weakly ordered policy on every DRF0 litmus
	// program across many seeds.
	progs := []*program.Program{
		litmus.DekkerSync(),
		litmus.MessagePassing(),
		litmus.CriticalSection(2, 2),
		litmus.CriticalSection(3, 1),
		litmus.TestAndTAS(2, 2),
		litmus.Barrier(3),
		litmus.Figure3(),
	}
	for _, pol := range []policy.Kind{policy.WODef1, policy.WODef2, policy.WODef2RO} {
		for _, topo := range []Topology{TopoBus, TopoNetwork} {
			cfg := Config{Policy: pol, Topology: topo, Caches: true}
			for _, p := range progs {
				for seed := int64(0); seed < 5; seed++ {
					res := mustRun(t, p, cfg, seed)
					if !appearsSC(t, p, res.Result) {
						t.Errorf("%s: weakly ordered hardware violated SC appearance on DRF0 program %s (seed %d):\n%v",
							cfg.Name(), p.Name, seed, res.Result)
					}
				}
			}
		}
	}
}

func TestUnconstrainedViolatesSCOnDekker(t *testing.T) {
	// Figure 1: on every configuration the unconstrained hardware can
	// produce r0 == r1 == 0.
	for _, topo := range []Topology{TopoBus, TopoNetwork} {
		for _, caches := range []bool{false, true} {
			cfg := Config{Policy: policy.Unconstrained, Topology: topo, Caches: caches}
			violated := false
			for seed := int64(0); seed < 20 && !violated; seed++ {
				res := mustRun(t, litmus.Dekker(), cfg, seed)
				if litmus.DekkerForbidden(res.Result) {
					violated = true
				}
			}
			if !violated {
				t.Errorf("%s: expected at least one Figure 1 violation in 20 seeds", cfg.Name())
			}
		}
	}
}

func TestSCNeverViolatesDekker(t *testing.T) {
	for _, topo := range []Topology{TopoBus, TopoNetwork} {
		for _, caches := range []bool{false, true} {
			cfg := Config{Policy: policy.SC, Topology: topo, Caches: caches}
			for seed := int64(0); seed < 20; seed++ {
				res := mustRun(t, litmus.Dekker(), cfg, seed)
				if litmus.DekkerForbidden(res.Result) {
					t.Errorf("%s seed %d: SC hardware produced the forbidden Dekker outcome", cfg.Name(), seed)
				}
			}
		}
	}
}

func TestMessagePassingDelivery(t *testing.T) {
	// Under every weakly ordered policy the DRF0 handoff must deliver 42.
	p := litmus.MessagePassing()
	data, _ := p.AddrOf("data")
	for _, pol := range []policy.Kind{policy.SC, policy.WODef1, policy.WODef2, policy.WODef2RO} {
		cfg := Config{Policy: pol, Topology: TopoNetwork, Caches: pol != policy.SC}
		for seed := int64(0); seed < 10; seed++ {
			res := mustRun(t, p, cfg, seed)
			// P1's last read is the data read; find it in the trace.
			var got mem.Value
			found := false
			for _, op := range res.Exec.Ops {
				if op.Proc == 1 && op.Kind == mem.Read && op.Addr == data {
					got = op.Got
					found = true
				}
			}
			if !found || got != 42 {
				t.Errorf("%v seed %d: consumer read %d (found=%v), want 42", pol, seed, got, found)
			}
		}
	}
}

func TestCriticalSectionCounterCorrectUnderWeakOrdering(t *testing.T) {
	for _, pol := range []policy.Kind{policy.SC, policy.WODef1, policy.WODef2, policy.WODef2RO} {
		for procs := 2; procs <= 4; procs++ {
			p := litmus.CriticalSection(procs, 2)
			counter, _ := p.AddrOf("counter")
			cfg := Config{Policy: pol, Topology: TopoNetwork, Caches: true}
			if pol == policy.SC {
				cfg.Caches = true
			}
			for seed := int64(0); seed < 3; seed++ {
				res := mustRun(t, p, cfg, seed)
				want := mem.Value(procs * 2)
				if got := res.Exec.Final[counter]; got != want {
					t.Errorf("%v %dp seed %d: counter = %d, want %d", pol, procs, seed, got, want)
				}
			}
		}
	}
}

func TestTestAndTASCorrectUnderRefinedPolicy(t *testing.T) {
	p := litmus.TestAndTAS(3, 2)
	counter, _ := p.AddrOf("counter")
	for _, pol := range []policy.Kind{policy.WODef2, policy.WODef2RO} {
		cfg := Config{Policy: pol, Topology: TopoNetwork, Caches: true}
		for seed := int64(0); seed < 5; seed++ {
			res := mustRun(t, p, cfg, seed)
			if got := res.Exec.Final[counter]; got != 6 {
				t.Errorf("%v seed %d: counter = %d, want 6", pol, seed, got)
			}
		}
	}
}

func TestBarrierPublishesPreBarrierWrites(t *testing.T) {
	p := litmus.Barrier(3)
	for _, pol := range []policy.Kind{policy.WODef1, policy.WODef2, policy.WODef2RO} {
		cfg := Config{Policy: pol, Topology: TopoNetwork, Caches: true}
		for seed := int64(0); seed < 5; seed++ {
			res := mustRun(t, p, cfg, seed)
			// Each processor's post-barrier read of its left neighbor's
			// data must observe 100+neighbor.
			for _, op := range res.Exec.Ops {
				if op.Kind == mem.Read && op.Label != "" && len(op.Label) > 4 && op.Label[:4] == "data" {
					want := mem.Value(100 + int(op.Label[4]-'0'))
					if op.Got != want {
						t.Errorf("%v seed %d: %v read %d, want %d", pol, seed, op, op.Got, want)
					}
				}
			}
		}
	}
}

func TestCoherenceWriteSerialization(t *testing.T) {
	// Condition 2 of Section 5.1: all processors observe the writes to a
	// location in the same order, on every cached configuration and
	// policy (coherence is policy-independent here).
	p := litmus.Coherence()
	for _, pol := range policy.All() {
		cfg := Config{Policy: pol, Topology: TopoNetwork, Caches: true}
		if cfg.Validate() != nil {
			continue
		}
		for seed := int64(0); seed < 10; seed++ {
			res := mustRun(t, p, cfg, seed)
			for _, reader := range []int{1, 2} {
				r0, _ := res.Result.Read(mem.OpID{Proc: reader, Index: 0})
				r1, _ := res.Result.Read(mem.OpID{Proc: reader, Index: 1})
				if r0.Value == 2 && r1.Value == 1 {
					t.Errorf("%v seed %d: P%d observed x=2 then x=1 (write serialization violated)",
						pol, seed, reader)
				}
			}
		}
	}
}

func TestFigure3StallComparison(t *testing.T) {
	// The paper's Figure 3: under Definition 1 the releasing processor P0
	// stalls at the Unset until W(x) is globally performed; under the new
	// implementation P0 need never stall there (it proceeds at commit).
	p := litmus.Figure3()
	base := Config{Topology: TopoNetwork, Caches: true, NetBase: 40, NetJitter: 10}

	def1 := base
	def1.Policy = policy.WODef1
	res1 := mustRun(t, p, def1, 7)

	def2 := base
	def2.Policy = policy.WODef2
	res2 := mustRun(t, p, def2, 7)

	p0Def1 := res1.Stats.Procs[0].SyncStall()
	p0Def2 := res2.Stats.Procs[0].SyncStall()
	if p0Def2 >= p0Def1 {
		t.Errorf("P0 sync stall: Def1 %d cycles, Def2 %d cycles — Def2 must stall P0 less", p0Def1, p0Def2)
	}
	// P1 (the acquirer) stalls under both (its TAS cannot succeed until
	// the release is visible).
	if res2.Stats.Procs[1].SyncStall() == 0 {
		t.Error("P1 must stall on its TAS under Def2 as well")
	}
	// And both machines deliver the correct x.
	for _, res := range []*RunResult{res1, res2} {
		if !appearsSC(t, p, res.Result) {
			t.Error("Figure 3 run must appear SC")
		}
	}
}

func TestDef2SetsReserveAndDefersSync(t *testing.T) {
	// With a long write latency, P0's Unset commits while W(x) is
	// outstanding: the line must be reserved and P1's TAS deferred.
	p := litmus.Figure3()
	cfg := Config{Policy: policy.WODef2, Topology: TopoNetwork, Caches: true,
		NetBase: 60, NetJitter: 0}
	res := mustRun(t, p, cfg, 3)
	if res.Stats.Caches[0].DeferredFwds == 0 {
		t.Error("expected P1's sync request to be deferred by P0's reserve bit at least once")
	}
}

func TestWatchdogFiresOnLivelock(t *testing.T) {
	// A program that spins forever on a flag nobody sets must hit the
	// watchdog rather than hang.
	b := program.NewBuilder("spin-forever")
	f := b.Var("f")
	th := b.Thread()
	th.Label("spin")
	th.SyncLoad(program.R0, f)
	th.BeqImm(program.R0, 0, "spin")
	p := b.MustBuild()

	cfg := Config{Policy: policy.WODef2, Topology: TopoBus, Caches: true, MaxCycles: 5000}
	if _, err := Run(p, cfg, 1); err == nil {
		t.Fatal("expected watchdog error")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := Config{Policy: policy.WODef2, Caches: false}
	if bad.Validate() == nil {
		t.Error("weak ordering without caches must be rejected")
	}
	if _, err := Run(litmus.Dekker(), bad, 1); err == nil {
		t.Error("Run must reject invalid configs")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	p := litmus.CriticalSection(3, 2)
	cfg := Config{Policy: policy.WODef2, Topology: TopoNetwork, Caches: true}
	a := mustRun(t, p, cfg, 99)
	b := mustRun(t, p, cfg, 99)
	if !a.Result.Equal(b.Result) {
		t.Error("same seed must reproduce the same result")
	}
	if a.Stats.Cycles != b.Stats.Cycles {
		t.Errorf("same seed must reproduce the same cycle count (%d vs %d)", a.Stats.Cycles, b.Stats.Cycles)
	}
}

func TestStatsPopulated(t *testing.T) {
	res := mustRun(t, litmus.CriticalSection(2, 2),
		Config{Policy: policy.WODef2, Topology: TopoNetwork, Caches: true}, 5)
	if res.Stats.Cycles == 0 {
		t.Error("cycles must be positive")
	}
	if res.Stats.Net.Messages == 0 {
		t.Error("network must carry messages")
	}
	if len(res.Stats.Procs) != 2 || len(res.Stats.Caches) != 2 {
		t.Error("per-processor stats missing")
	}
	if res.Stats.Procs[0].MemOps == 0 || res.Stats.Procs[0].SyncOps == 0 {
		t.Error("op counts missing")
	}
}

func TestSmallCacheEvictionsAndWritebacks(t *testing.T) {
	// Touch more lines than the cache holds: evictions and writebacks
	// must occur and the program must still be correct.
	b := program.NewBuilder("evict")
	const n = 12
	th := b.Thread()
	for i := 0; i < n; i++ {
		th.StoreImm(b.Var(string(rune('a'+i))), mem.Value(i+1))
	}
	for i := 0; i < n; i++ {
		th.Load(program.Reg(1), b.Var(string(rune('a'+i))))
	}
	p := b.MustBuild()

	cfg := Config{Policy: policy.WODef2, Topology: TopoNetwork, Caches: true, CacheCapacity: 4}
	res := mustRun(t, p, cfg, 2)
	if res.Stats.Caches[0].Evictions == 0 || res.Stats.Caches[0].Writebacks == 0 {
		t.Errorf("expected evictions and writebacks with capacity 4: %+v", res.Stats.Caches[0])
	}
	for i := 0; i < n; i++ {
		a, _ := p.AddrOf(string(rune('a' + i)))
		if got := res.Exec.Final[a]; got != mem.Value(i+1) {
			t.Errorf("final [%c] = %d, want %d", 'a'+i, got, i+1)
		}
	}
}

func TestSharedDataEvictionWithTwoCaches(t *testing.T) {
	// Two processors stream over a shared read-mostly region with tiny
	// caches: exercises silent shared-line drops and stale-sharer
	// invalidation acks.
	b := program.NewBuilder("shared-evict")
	const n = 8
	for i := 0; i < n; i++ {
		b.InitVar(string(rune('a'+i)), mem.Value(i))
	}
	for t0 := 0; t0 < 2; t0++ {
		th := b.Thread()
		for round := 0; round < 2; round++ {
			for i := 0; i < n; i++ {
				a := b.Var(string(rune('a' + i)))
				th.Load(program.R0, a)
			}
		}
	}
	wr := b.Thread()
	for i := 0; i < n; i++ {
		wr.StoreImm(b.Var(string(rune('a'+i))), mem.Value(100+i))
	}
	p := b.MustBuild()

	cfg := Config{Policy: policy.WODef2, Topology: TopoNetwork, Caches: true, CacheCapacity: 3}
	res := mustRun(t, p, cfg, 11)
	for i := 0; i < n; i++ {
		a, _ := p.AddrOf(string(rune('a' + i)))
		if got := res.Exec.Final[a]; got != mem.Value(100+i) {
			t.Errorf("final [%c] = %d, want %d", 'a'+i, got, 100+i)
		}
	}
}

// Each topology interleaves addresses across its fixed number of memory
// modules: one on the bus, two on the flat network, four on the mesh.
func TestMemModulesInterleaving(t *testing.T) {
	p := litmus.CriticalSection(2, 1)
	counter, _ := p.AddrOf("counter")
	for topo, want := range map[Topology]int{TopoBus: 1, TopoNetwork: 2, TopoMesh: 4} {
		res := mustRun(t, p, Config{Policy: policy.WODef2, Topology: topo, Caches: true}, 1)
		if got := res.Exec.Final[counter]; got != 2 {
			t.Errorf("%v: counter = %d, want 2", topo, got)
		}
		if len(res.Stats.Dirs) != want {
			t.Errorf("%v: dirs = %d, want %d", topo, len(res.Stats.Dirs), want)
		}
	}
}

// A negative size or count is a configuration error that names the
// field. Unchecked, ExtraProcs -1 silently dropped a thread from the run,
// and the other fields wedged the run into a watchdog death reported as
// a protocol bug.
func TestConfigRejectsNegativeSizes(t *testing.T) {
	sev := faults.Severe()
	base := Config{Policy: policy.WODef2, Topology: TopoNetwork, Caches: true}
	for field, set := range map[string]func(*Config){
		"ExtraProcs":           func(c *Config) { c.ExtraProcs = -1 },
		"WriteBuffer":          func(c *Config) { c.WriteBuffer = -1 },
		"MaxOutstandingWrites": func(c *Config) { c.MaxOutstandingWrites = -1 },
		"RetryMax":             func(c *Config) { c.RetryMax, c.Faults = -1, &sev },
		"CacheCapacity":        func(c *Config) { c.CacheCapacity = -1 },
		"DirPointers":          func(c *Config) { c.DirPointers = -1 },
		"DirCoarseness":        func(c *Config) { c.DirCoarseness = -1 },
	} {
		cfg := base
		set(&cfg)
		_, err := Run(litmus.CriticalSection(2, 1), cfg, 3)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s -1: Run error = %v, want one naming %s", field, err, field)
		}
	}
}
