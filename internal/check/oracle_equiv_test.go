package check

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"weakorder/internal/drf"
	"weakorder/internal/hb"
	"weakorder/internal/ideal"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
	"weakorder/internal/program"
)

// oracleEnumMaxPaths bounds the reference SC outcome-set enumeration.
const oracleEnumMaxPaths = 200_000

// oracleEnumConfig configures the whole-program SC outcome-set
// enumeration that the fast-path and reduction differentials use as a
// reference. Partial-order reduction is on: only mem.Result keys are
// consumed, and those are invariant across interleavings that commute
// non-conflicting operations, so one representative per Mazurkiewicz
// trace yields the identical outcome set
// (TestOracleEquivalenceNaiveVsReduced asserts this) while MaxPaths
// truncates far less often.
func oracleEnumConfig() ideal.EnumConfig {
	return ideal.EnumConfig{
		Interp:        ideal.Config{MaxMemOpsPerThread: oracleMemOpsPerThread},
		SkipTruncated: true,
		MaxPaths:      oracleEnumMaxPaths,
		Reduce:        true,
	}
}

// enumOutcomes collects the distinct SC result keys of p under cfg;
// budget=true marks a blown MaxPaths budget (outcome set incomplete).
func enumOutcomes(t *testing.T, p *program.Program, cfg ideal.EnumConfig) (out map[string]bool, stats ideal.EnumStats, budget bool) {
	t.Helper()
	out = make(map[string]bool)
	stats, err := ideal.Enumerate(p, cfg, func(it *ideal.Interp) error {
		out[mem.ResultOf(it.Execution()).Key()] = true
		return nil
	})
	if errors.Is(err, ideal.ErrBudget) {
		return out, stats, true
	}
	if err != nil {
		t.Fatalf("%s: enumerate: %v", p.Name, err)
	}
	return out, stats, false
}

// matchVerdict runs the result-directed search that scmatch.Matches
// runs, under the bounded interpreter of the outcome-set enumeration,
// with partial-order reduction off (naive) or on: every interleaving
// consistent with r's reads, stopped at the first whose result equals
// r. Budget-exceeded is its own verdict value (the campaign records it
// as a budget skip).
func matchVerdict(t *testing.T, p *program.Program, r mem.Result, naive bool) (ok, budget bool) {
	t.Helper()
	_, err := ideal.Enumerate(p, ideal.EnumConfig{
		Interp:        ideal.Config{MaxMemOpsPerThread: oracleMemOpsPerThread},
		MaxPaths:      oracleMatchMaxStates,
		SkipTruncated: true,
		Reduce:        !naive,
		Observed:      &r,
	}, func(it *ideal.Interp) error {
		if !mem.ResultOf(it.Execution()).Equal(r) {
			return nil
		}
		ok = true
		return ideal.ErrStop
	})
	if errors.Is(err, ideal.ErrBudget) {
		return false, true
	}
	if err != nil {
		t.Fatalf("%s: search: %v", p.Name, err)
	}
	return ok, false
}

// corrupt returns a copy of r with one read observation perturbed, so
// the Matches differential also covers the not-SC path.
func corrupt(r mem.Result) mem.Result {
	out := mem.Result{Reads: slices.Clone(r.Reads), Final: r.Final}
	if len(out.Reads) > 0 {
		out.Reads[0].Value += 1000
	}
	return out
}

// TestOracleEquivalenceNaiveVsReduced is the differential safety net
// for the partial-order reduction: across the full generator catalog
// (race-free and racy), the reduced oracle must produce the identical
// SC outcome set, the identical truncation status, the identical DRF
// classification, and the identical result-directed search verdict as
// naive enumeration — while exploring at least 5x fewer steps on
// aggregate.
func TestOracleEquivalenceNaiveVsReduced(t *testing.T) {
	specs := generators()
	perSpec := 52 // 4 specs x 52 = 208 programs
	if testing.Short() {
		perSpec = 6
	}
	var (
		mu                               sync.Mutex
		progs, enumSkipped, matchSkipped int
		naiveSteps, reducedSteps         int
	)
	// The group subtest blocks until every parallel spec finishes, so
	// the aggregate assertions below see the full corpus.
	t.Run("specs", func(t *testing.T) {
		for si, spec := range specs {
			si, spec := si, spec
			t.Run(spec.name, func(t *testing.T) {
				t.Parallel()
				for s := 0; s < perSpec; s++ {
					p := spec.make(deriveSeed(0xd1ff, uint64(si), uint64(s)))

					// Outcome sets. The naive reference runs under a tighter
					// path budget than production (it is the costly side of
					// this differential); programs exceeding it still count
					// toward the corpus, but only budget monotonicity is
					// checked for them.
					naiveCfg := oracleEnumConfig()
					naiveCfg.Reduce = false
					naiveCfg.MaxPaths = 60_000
					nOut, nStats, nBudget := enumOutcomes(t, p, naiveCfg)
					rOut, rStats, rBudget := enumOutcomes(t, p, oracleEnumConfig())
					mu.Lock()
					progs++
					naiveSteps += nStats.Steps
					reducedSteps += rStats.Steps
					if nBudget {
						enumSkipped++
					}
					mu.Unlock()
					if nBudget {
						// No complete naive reference; the reduction must not be
						// worse off than it.
						if rBudget && rStats.Steps > nStats.Steps {
							t.Errorf("%s/%d: reduced blew the budget later than naive should allow", spec.name, s)
						}
					} else {
						if rBudget {
							t.Errorf("%s/%d: reduced enumeration blew a budget naive met", spec.name, s)
							continue
						}
						for k := range nOut {
							if !rOut[k] {
								t.Errorf("%s/%d: naive outcome %q missing under reduction", spec.name, s, k)
							}
						}
						for k := range rOut {
							if !nOut[k] {
								t.Errorf("%s/%d: reduced outcome %q not in naive set", spec.name, s, k)
							}
						}
						if (nStats.Truncated == 0) != (rStats.Truncated == 0) {
							t.Errorf("%s/%d: truncation parity lost: naive %d, reduced %d",
								spec.name, s, nStats.Truncated, rStats.Truncated)
						}
					}

					// DRF classification.
					naiveDRF := boundedDRFConfig()
					naiveDRF.Enum.Reduce = false
					naiveDRF.Enum.MaxPaths = 30_000
					nv, nErr := drf.Check(p, hb.SyncAll, naiveDRF)
					rv, rErr := drf.Check(p, hb.SyncAll, boundedDRFConfig())
					if nErr == nil && rErr == nil && nv.DRF != rv.DRF {
						t.Errorf("%s/%d: DRF verdict diverged: naive %v, reduced %v",
							spec.name, s, nv.DRF, rv.DRF)
					}

					// Matches verdicts against observed hardware results — one
					// well-behaved config, one weakly ordered one, and a corrupted
					// result that no SC execution can produce.
					for _, mc := range []machine.Config{
						{Policy: policy.SC, Topology: machine.TopoBus, Caches: true, MaxCycles: campaignMaxCycles},
						{Policy: policy.Unconstrained, Topology: machine.TopoNetwork, MaxCycles: campaignMaxCycles},
					} {
						res, err := machine.Run(p, mc, deriveSeed(0x5eed, uint64(si), uint64(s)))
						if err != nil {
							t.Fatalf("%s/%d: machine %s: %v", spec.name, s, mc.Name(), err)
						}
						for _, r := range []mem.Result{res.Result, corrupt(res.Result)} {
							nOK, nB := matchVerdict(t, p, r, true)
							rOK, rB := matchVerdict(t, p, r, false)
							if nB {
								mu.Lock()
								matchSkipped++
								mu.Unlock()
								continue // no naive reference verdict
							}
							if rB {
								t.Errorf("%s/%d: reduced match blew a budget naive met (%s)",
									spec.name, s, mc.Name())
								continue
							}
							if nOK != rOK {
								t.Errorf("%s/%d: Matches verdict diverged on %s: naive %v, reduced %v",
									spec.name, s, mc.Name(), nOK, rOK)
							}
						}
					}
				}
			})
		}
	})
	t.Logf("%d programs: naive %d enum steps, reduced %d (%.1fx); %d enum comparisons skipped (naive over budget), %d match comparisons skipped",
		progs, naiveSteps, reducedSteps, float64(naiveSteps)/float64(reducedSteps), enumSkipped, matchSkipped)
	if !testing.Short() && progs < 200 {
		t.Errorf("differential corpus too small: %d programs (want >= 200)", progs)
	}
	if reducedSteps*5 > naiveSteps {
		t.Errorf("paths explored dropped less than 5x on the generator mix: naive %d, reduced %d",
			naiveSteps, reducedSteps)
	}
}
