package ideal_test

import (
	"testing"

	"weakorder/internal/gen"
	"weakorder/internal/ideal"
	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// outcomeSet enumerates p under cfg and returns the set of distinct
// result keys plus the enumeration statistics.
func outcomeSet(t *testing.T, p *program.Program, cfg ideal.EnumConfig) (map[string]bool, ideal.EnumStats) {
	t.Helper()
	out := make(map[string]bool)
	stats, err := ideal.Enumerate(p, cfg, func(it *ideal.Interp) error {
		out[mem.ResultOf(it.Execution()).Key()] = true
		return nil
	})
	if err != nil {
		t.Fatalf("%s: enumerate (reduce=%v): %v", p.Name, cfg.Reduce, err)
	}
	return out, stats
}

// outcomeSetBudget is outcomeSet, but a blown path budget reports
// ok=false instead of failing the test.
func outcomeSetBudget(t *testing.T, p *program.Program, cfg ideal.EnumConfig) (map[string]bool, ideal.EnumStats, bool) {
	t.Helper()
	out := make(map[string]bool)
	stats, err := ideal.Enumerate(p, cfg, func(it *ideal.Interp) error {
		out[mem.ResultOf(it.Execution()).Key()] = true
		return nil
	})
	if err == ideal.ErrBudget {
		return nil, stats, false
	}
	if err != nil {
		t.Fatalf("%s: enumerate (reduce=%v): %v", p.Name, cfg.Reduce, err)
	}
	return out, stats, true
}

func diffOutcomes(t *testing.T, p *program.Program, cfg ideal.EnumConfig) (naive, reduced ideal.EnumStats) {
	t.Helper()
	naiveCfg := cfg
	naiveCfg.Reduce = false
	reducedCfg := cfg
	reducedCfg.Reduce = true
	nOut, nStats, ok := outcomeSetBudget(t, p, naiveCfg)
	if !ok {
		// The naive reference blew MaxPaths: nothing to compare against.
		t.Logf("%s: naive enumeration exceeded budget; skipping comparison", p.Name)
		return nStats, nStats
	}
	rOut, rStats := outcomeSet(t, p, reducedCfg)
	for k := range nOut {
		if !rOut[k] {
			t.Errorf("%s: naive outcome %q missing under reduction", p.Name, k)
		}
	}
	for k := range rOut {
		if !nOut[k] {
			t.Errorf("%s: reduced outcome %q not in naive set", p.Name, k)
		}
	}
	// The oracle's completeness flag is Truncated == 0; the reduction
	// must not hide truncation (a budget-exceeded step is re-hit at the
	// first branch that reaches it, before any sleep bit covers it).
	if (nStats.Truncated == 0) != (rStats.Truncated == 0) {
		t.Errorf("%s: truncation parity lost: naive %d, reduced %d",
			p.Name, nStats.Truncated, rStats.Truncated)
	}
	if rStats.Steps > nStats.Steps {
		t.Errorf("%s: reduction explored more steps (%d) than naive (%d)",
			p.Name, rStats.Steps, nStats.Steps)
	}
	return nStats, rStats
}

func TestReducedOutcomesMatchNaiveLitmus(t *testing.T) {
	cfg := ideal.EnumConfig{
		Interp:        ideal.Config{MaxMemOpsPerThread: 16},
		SkipTruncated: true,
	}
	var naiveSteps, reducedSteps int
	for _, p := range litmus.All() {
		n, r := diffOutcomes(t, p, cfg)
		naiveSteps += n.Steps
		reducedSteps += r.Steps
	}
	t.Logf("litmus corpus: naive %d steps, reduced %d steps (%.1fx)",
		naiveSteps, reducedSteps, float64(naiveSteps)/float64(reducedSteps))
}

func TestReducedOutcomesMatchNaiveGenerated(t *testing.T) {
	cfg := ideal.EnumConfig{
		Interp:        ideal.Config{MaxMemOpsPerThread: 16},
		SkipTruncated: true,
		MaxPaths:      2_000_000,
	}
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for s := 0; s < seeds; s++ {
		diffOutcomes(t, gen.RaceFree(gen.RaceFreeConfig{
			Procs: 2, Locks: 1, SharedPerLock: 2, PrivatePerProc: 1,
			Sections: 1, OpsPerSection: 2, PrivateOps: 1,
		}, int64(s)), cfg)
		diffOutcomes(t, gen.Racy(gen.RacyConfig{
			Procs: 2, Vars: 3, OpsPerProc: 5, SyncFraction: 4,
		}, int64(s)), cfg)
		diffOutcomes(t, gen.Handoff(gen.HandoffConfig{Stages: 2, Items: 1, Work: 1}, int64(s)), cfg)
	}
}

// TestReducedEnumerationPrunes guards the perf claim: on a program of
// mostly-independent operations the reduction must explore far fewer
// steps than C(n,k) interleavings.
func TestReducedEnumerationPrunes(t *testing.T) {
	p := gen.Racy(gen.RacyConfig{Procs: 3, Vars: 6, OpsPerProc: 4, SyncFraction: 8}, 7)
	cfg := ideal.EnumConfig{
		Interp:        ideal.Config{MaxMemOpsPerThread: 16},
		SkipTruncated: true,
	}
	naive, reduced := diffOutcomes(t, p, cfg)
	if reduced.Steps*5 > naive.Steps {
		t.Errorf("expected >=5x step reduction, got naive %d vs reduced %d",
			naive.Steps, reduced.Steps)
	}
	if reduced.SleepPruned == 0 {
		t.Error("expected sleep-set prunes, got none")
	}
}

// TestReduceManyThreadsFallsBack checks that a program wider than the
// sleep-set mask, which is walked without reduction, overflows no
// bitmask and still stops at its path budget.
func TestReduceManyThreadsFallsBack(t *testing.T) {
	b := program.NewBuilder("wide")
	x := b.Var("x")
	for i := 0; i < 65; i++ {
		b.Thread().StoreImm(x, 1)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := ideal.EnumConfig{
		Interp:        ideal.Config{MaxMemOpsPerThread: 4},
		SkipTruncated: true,
		MaxPaths:      10,
		Reduce:        true,
	}
	_, err = ideal.Enumerate(p, cfg, func(*ideal.Interp) error { return nil })
	if err != ideal.ErrBudget {
		t.Fatalf("expected ErrBudget from the unreduced walk, got %v", err)
	}
}
