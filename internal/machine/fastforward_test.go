package machine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"weakorder/internal/faults"
	"weakorder/internal/gen"
	"weakorder/internal/lang"
	"weakorder/internal/litmus"
	"weakorder/internal/policy"
	"weakorder/internal/program"
)

// runBoth executes p under cfg with the idle-cycle fast-forward enabled
// and disabled and returns both results.
func runBoth(t *testing.T, p *program.Program, cfg Config, seed int64) (ff, naive *RunResult) {
	t.Helper()
	slow := cfg
	slow.disableFastForward = true
	naiveRes, nErr := Run(p, slow, seed)
	ffRes, fErr := Run(p, cfg, seed)
	if (nErr == nil) != (fErr == nil) || (nErr != nil && nErr.Error() != fErr.Error()) {
		t.Fatalf("%s/%s seed %d: error diverged: naive %v, fast-forward %v",
			p.Name, cfg.Name(), seed, nErr, fErr)
	}
	if nErr != nil {
		return nil, nil
	}
	return ffRes, naiveRes
}

// assertIdentical requires the two runs to be byte-identical in every
// observable: trace, timing, final state, registers, and statistics.
func assertIdentical(t *testing.T, label string, ff, naive *RunResult) {
	t.Helper()
	if ff == nil || naive == nil {
		return
	}
	if got, want := fmt.Sprintf("%v", ff.Exec.Ops), fmt.Sprintf("%v", naive.Exec.Ops); got != want {
		t.Errorf("%s: trace diverged:\n fast-forward %s\n naive        %s", label, got, want)
	}
	if !reflect.DeepEqual(ff.OpCycles, naive.OpCycles) {
		t.Errorf("%s: commit cycles diverged:\n fast-forward %v\n naive        %v",
			label, ff.OpCycles, naive.OpCycles)
	}
	if got, want := ff.Result.Key(), naive.Result.Key(); got != want {
		t.Errorf("%s: result diverged: fast-forward %q, naive %q", label, got, want)
	}
	if !reflect.DeepEqual(ff.Regs, naive.Regs) {
		t.Errorf("%s: final registers diverged", label)
	}
	if !reflect.DeepEqual(ff.Stats, naive.Stats) {
		t.Errorf("%s: stats diverged:\n fast-forward %+v\n naive        %+v",
			label, ff.Stats, naive.Stats)
	}
	if !reflect.DeepEqual(ff.FaultStats, naive.FaultStats) {
		t.Errorf("%s: fault stats diverged", label)
	}
}

// TestFastForwardByteIdentical sweeps litmus and generated programs, and
// the campaign's committed corpus reproducers, across the full
// configuration matrix: skipping idle cycles must not change a single
// observable of any run.
func TestFastForwardByteIdentical(t *testing.T) {
	progs := []*program.Program{
		litmus.Dekker(),
		litmus.MessagePassingBounded(),
		litmus.CriticalSection(3, 2),
		litmus.Barrier(3),
		gen.RaceFree(gen.RaceFreeConfig{
			Procs: 2, Locks: 1, SharedPerLock: 2, PrivatePerProc: 1,
			Sections: 1, OpsPerSection: 2, PrivateOps: 1,
		}, 11),
		gen.Racy(gen.RacyConfig{Procs: 3, Vars: 3, OpsPerProc: 5, SyncFraction: 4}, 11),
	}
	corpus, err := filepath.Glob(filepath.Join("..", "check", "testdata", "corpus", "*.litmus"))
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no corpus reproducers found (%v)", err)
	}
	for _, path := range corpus {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := lang.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		progs = append(progs, p)
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, p := range progs {
		for _, cfg := range allConfigs() {
			for _, seed := range seeds {
				ff, naive := runBoth(t, p, cfg, seed)
				assertIdentical(t, fmt.Sprintf("%s/%s/seed%d", p.Name, cfg.Name(), seed), ff, naive)
			}
		}
	}
}

// TestFastForwardByteIdenticalFaults covers the retry-timeout path: the
// polled deadlines must fire on exactly the same cycles when the idle
// stretches between them are skipped.
func TestFastForwardByteIdenticalFaults(t *testing.T) {
	plans := []faults.Plan{faults.Mild(), faults.Severe()}
	progs := []*program.Program{
		litmus.CriticalSection(2, 2),
		litmus.MessagePassingBounded(),
	}
	for pi := range plans {
		plan := plans[pi]
		for _, p := range progs {
			for _, topo := range []Topology{TopoBus, TopoNetwork} {
				cfg := Config{
					Policy: policy.WODef2, Topology: topo, Caches: true,
					Faults: &plan, MaxCycles: 500_000,
				}
				for seed := int64(1); seed <= 3; seed++ {
					ff, naive := runBoth(t, p, cfg, seed)
					assertIdentical(t, fmt.Sprintf("%s/%s/plan%d/seed%d", p.Name, cfg.Name(), pi, seed), ff, naive)
				}
			}
		}
	}
}

// TestFastForwardWatchdogParity wedges the machine (fault plan with
// retries disabled drops a request permanently) and checks the watchdog
// fires at the same cycle with an identical liveness report either way.
func TestFastForwardWatchdogParity(t *testing.T) {
	plan := faults.Severe()
	plan.DisableRetry = true
	cfg := Config{
		Policy: policy.WODef2, Topology: TopoNetwork, Caches: true,
		Faults: &plan, MaxCycles: 20_000,
	}
	p := litmus.CriticalSection(2, 2)
	wedged := 0
	for seed := int64(1); seed <= 8; seed++ {
		slow := cfg
		slow.disableFastForward = true
		_, nErr := Run(p, slow, seed)
		_, fErr := Run(p, cfg, seed)
		var nLive, fLive *LivenessError
		if errors.As(nErr, &nLive) != errors.As(fErr, &fLive) {
			t.Fatalf("seed %d: liveness divergence: naive %v, fast-forward %v", seed, nErr, fErr)
		}
		if nLive == nil {
			continue
		}
		wedged++
		if nErr.Error() != fErr.Error() {
			t.Errorf("seed %d: liveness report diverged:\n naive        %v\n fast-forward %v",
				seed, nErr, fErr)
		}
		if nLive.Report.Cycles != fLive.Report.Cycles {
			t.Errorf("seed %d: watchdog cycle diverged: naive %d, fast-forward %d",
				seed, nLive.Report.Cycles, fLive.Report.Cycles)
		}
	}
	if wedged == 0 {
		t.Skip("no seed wedged; watchdog parity unexercised")
	}
}
