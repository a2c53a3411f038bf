package machine

import (
	"errors"
	"fmt"
	"testing"

	"weakorder/internal/cache"
	"weakorder/internal/faults"
	"weakorder/internal/gen"
	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
	"weakorder/internal/program"
)

// cloneResult deep-copies the fields of a RunResult that alias
// machine-owned buffers (which the next Reset invalidates), so results
// from successive pooled runs can be compared side by side.
func cloneResult(r *RunResult) *RunResult {
	if r == nil {
		return nil
	}
	c := *r
	exec := *r.Exec
	exec.Ops = append([]mem.Op(nil), r.Exec.Ops...)
	c.Exec = &exec
	c.OpCycles = append([]uint64(nil), r.OpCycles...)
	return &c
}

// A pooled machine reset between runs must be indistinguishable from a
// freshly assembled one: same traces, commit cycles, results, registers,
// stats, and fault schedules — even after the machine has been dirtied
// by intervening runs of other programs and seeds, and even under a
// severe fault plan exercising retries, MSHR reuse, and timeouts.
func TestPooledMachineByteIdentical(t *testing.T) {
	progs := []*program.Program{
		litmus.Dekker(),
		litmus.MessagePassingBounded(),
		gen.RaceFree(gen.RaceFreeConfig{
			Procs: 3, Locks: 2, SharedPerLock: 2, Sections: 2, OpsPerSection: 2,
		}, 5),
	}
	sev := faults.Severe()
	cfgs := []Config{
		{Policy: policy.SC, Topology: TopoBus, Caches: true},
		{Policy: policy.WODef2, Topology: TopoNetwork, Caches: true},
		{Policy: policy.WODef2RO, Topology: TopoNetwork, Caches: true},
		{Policy: policy.SC, Topology: TopoNetwork, Caches: false},
		{Policy: policy.SC, Topology: TopoBus, Caches: false},
		{Policy: policy.WODef1, Topology: TopoNetwork, Caches: true, Faults: &sev},
		{Policy: policy.WODef2, Topology: TopoMesh, Caches: true},
		{Policy: policy.WODef2, Topology: TopoMesh, Caches: true,
			DirMode: cache.DirLimitedPtr, DirPointers: 2},
		{Policy: policy.WODef1, Topology: TopoMesh, Caches: true,
			DirMode: cache.DirCoarseVector, DirCoarseness: 2, Faults: &sev},
	}
	for _, cfg := range cfgs {
		pool := NewPool()
		for _, p := range progs {
			label := fmt.Sprintf("%s/%s", p.Name, cfg.Name())
			fresh := mustRun(t, p, cfg, 42)

			m, err := pool.Get(p, cfg, 42)
			if err != nil {
				t.Fatalf("%s: pool get: %v", label, err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("%s: pooled run: %v", label, err)
			}
			first := cloneResult(res)

			// Dirty the pooled machine: same structural config (so the
			// pool hands back the same instance), different seed.
			if _, err := pool.RunPooled(p, cfg, 7); err != nil {
				t.Fatalf("%s: dirtying run: %v", label, err)
			}

			res, err = pool.RunPooled(p, cfg, 42)
			if err != nil {
				t.Fatalf("%s: reused run: %v", label, err)
			}
			second := cloneResult(res)

			assertIdentical(t, label+" (pooled vs fresh)", first, fresh)
			assertIdentical(t, label+" (reused vs fresh)", second, fresh)
		}
	}
}

// Per-run knobs (write-buffer depth, outstanding-write bound, retry
// tuning) may change between pooled runs; the reset machine must honor
// the new values exactly as a fresh build would.
func TestPooledMachineHonorsPerRunKnobs(t *testing.T) {
	p := litmus.CriticalSection(2, 2)
	base := Config{Policy: policy.WODef2, Topology: TopoNetwork, Caches: true}
	narrow := base
	narrow.WriteBuffer = 1
	narrow.MaxOutstandingWrites = 1

	pool := NewPool()
	if _, err := pool.RunPooled(p, base, 9); err != nil {
		t.Fatal(err)
	}
	res, err := pool.RunPooled(p, narrow, 9)
	if err != nil {
		t.Fatal(err)
	}
	got := cloneResult(res)
	fresh := mustRun(t, p, narrow, 9)
	assertIdentical(t, "narrow write buffer (pooled vs fresh)", got, fresh)
}

// A liveness (watchdog) death must produce the same structured report
// from a dirty pooled machine as from a fresh one: the fault plan is a
// per-run knob, so a total-drop no-retry plan after a healthy run is the
// acid test for injector and retry-state reset.
func TestPooledMachineLivenessIdentical(t *testing.T) {
	p := litmus.MessagePassingBounded()
	dead := faults.Plan{Drop: 1, DisableRetry: true}
	cfg := Config{
		Policy: policy.WODef2, Topology: TopoNetwork, Caches: true,
		Faults: &dead, MaxCycles: 50_000,
	}
	_, freshErr := Run(p, cfg, 3)
	var le *LivenessError
	if !errors.As(freshErr, &le) {
		t.Fatalf("total drop did not produce a LivenessError: %v", freshErr)
	}

	pool := NewPool()
	mild := faults.Mild()
	healthy := cfg
	healthy.Faults = &mild
	if _, err := pool.RunPooled(p, healthy, 3); err != nil {
		t.Fatalf("healthy pooled run: %v", err)
	}
	_, pooledErr := pool.RunPooled(p, cfg, 3)
	if !errors.As(pooledErr, &le) {
		t.Fatalf("pooled total drop did not produce a LivenessError: %v", pooledErr)
	}
	if freshErr.Error() != pooledErr.Error() {
		t.Errorf("liveness reports diverged:\n fresh  %v\n pooled %v", freshErr, pooledErr)
	}
}

// Campaigns pad small programs to big machines, so a pooled 64-processor
// Reset mostly rewinds padding processors: it must not allocate, not even
// their thread names.
func TestPooledPaddedResetAllocFree(t *testing.T) {
	prog := gen.RaceFree(gen.RaceFreeConfig{Procs: 4}, 1)
	cfg := Config{
		Policy: policy.WODef2, Topology: TopoMesh, Caches: true,
		DirMode: cache.DirLimitedPtr, ExtraProcs: 64 - prog.NumThreads(),
	}
	pool := NewPool()
	m, err := pool.Get(prog, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := m.Reset(prog, cfg, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("pooled 64-processor padded Reset allocated %.1f times, want 0", allocs)
	}
}

// Reset must refuse structural mismatches, and the pool must fall back
// to full reassembly (without retaining the machine) for configurations
// that carry per-run observers.
func TestMachineResetCompatibility(t *testing.T) {
	p2 := litmus.Dekker()
	p3 := litmus.CriticalSection(3, 2)
	cfg := Config{Policy: policy.WODef2, Topology: TopoNetwork, Caches: true}
	m, err := New(p2, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(p3, cfg, 1); err == nil {
		t.Error("Reset accepted a program with a different processor count")
	}
	bus := cfg
	bus.Topology = TopoBus
	if err := m.Reset(p2, bus, 1); err == nil {
		t.Error("Reset accepted a different topology")
	}
	sc := cfg
	sc.Policy = policy.SC
	if err := m.Reset(p2, sc, 1); err == nil {
		t.Error("Reset accepted a different policy (reserve wiring is structural)")
	}
	lim := cfg
	lim.DirMode = cache.DirLimitedPtr
	if err := m.Reset(p2, lim, 1); err == nil {
		t.Error("Reset accepted a different directory mode (sharer storage is structural)")
	}
	mesh := cfg
	mesh.Topology = TopoMesh
	if err := m.Reset(p2, mesh, 1); err == nil {
		t.Error("Reset accepted a mesh in place of the flat network")
	}
	withMetrics := cfg
	withMetrics.Metrics = true
	if err := m.Reset(p2, withMetrics, 1); err == nil {
		t.Error("Reset accepted a metrics-bearing config")
	}
	if err := m.Reset(p2, cfg, 2); err != nil {
		t.Errorf("Reset rejected a compatible config: %v", err)
	}

	pool := NewPool()
	res, err := pool.RunPooled(p2, withMetrics, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Error("fallback path dropped the metrics snapshot")
	}
	if len(pool.machines) != 0 {
		t.Errorf("pool retained %d non-poolable machines", len(pool.machines))
	}
}
