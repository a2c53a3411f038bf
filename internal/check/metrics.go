package check

import (
	"fmt"

	"weakorder/internal/metrics"
)

// Metrics renders the summary as a telemetry snapshot (see
// internal/metrics): campaign totals, per-class program counts,
// per-policy coverage, shrinker effort, and oracle stage accounting. The
// snapshot is derived purely from the deterministic Summary — Perf
// (wall-clock) numbers are deliberately excluded — so equal campaigns
// export byte-identical metrics for any worker count.
func (s *Summary) Metrics() *metrics.Snapshot {
	r := metrics.NewRegistry()
	r.SetCounter("campaign.programs", uint64(s.Programs))
	r.SetCounter("campaign.configs", uint64(s.Configs))
	r.SetCounter("campaign.sims", uint64(s.Sims))
	r.SetCounter("campaign.violations", uint64(len(s.Violations)))
	r.SetCounter("campaign.watchdog_deaths", uint64(s.WatchdogDeaths))
	for class, n := range s.ByClass {
		r.SetCounter("campaign.programs."+class, uint64(n))
	}

	shrinkSteps := 0
	byKind := make(map[string]int)
	for i := range s.Violations {
		shrinkSteps += len(s.Violations[i].ShrinkSteps)
		byKind[s.Violations[i].Kind]++
	}
	r.SetCounter("campaign.shrink_steps", uint64(shrinkSteps))
	for kind, n := range byKind {
		r.SetCounter("campaign.violations."+kind, uint64(n))
	}

	for _, row := range s.Coverage {
		pre := fmt.Sprintf("coverage.%s.%s.", row.Policy, row.Class)
		r.SetCounter(pre+"sims", uint64(row.Sims))
		r.SetCounter(pre+"non_sc", uint64(row.NonSC))
		r.SetCounter(pre+"distinct_non_sc", uint64(row.DistinctNonSC))
	}

	// Robustness counters: recovered worker panics, per-check deadline
	// skips, and every skip (budget, local-loop or deadline) broken down
	// by the stage that overran. The per-stage series carry the stage as
	// a Prometheus label (weakorder_check_skips_total{stage="oracle"})
	// instead of minting a new metric name per stage.
	r.SetCounter("check.panic.recovered", uint64(s.WorkerPanics))
	r.SetCounter("check.deadline.skips", uint64(s.DeadlineSkips))
	byStage := make(map[string]int)
	for _, sk := range s.Skips {
		byStage[sk.Stage]++
	}
	for stage, n := range byStage {
		r.SetCounter(metrics.Labeled("check.skips_total", "stage", stage), uint64(n))
	}

	r.SetCounter("oracle.queries", uint64(s.Oracle.Queries))
	r.SetCounter("oracle.fallbacks", uint64(s.Oracle.Fallbacks))
	r.SetCounter("oracle.budget_exceeded", uint64(s.Oracle.BudgetExceeded))

	// Saturation fast path: decisions made without a search, and the
	// reasons ambiguous results were handed to the search.
	r.SetCounter("check.satfast.decided", uint64(s.Oracle.SatDecided))
	r.SetCounter("check.satfast.accepted", uint64(s.Oracle.SatAccepted))
	r.SetCounter("check.satfast.rejected", uint64(s.Oracle.SatRejected))
	r.SetCounter("check.satfast.fallbacks", uint64(s.Oracle.SatFallbacks))
	for reason, n := range s.Oracle.SatFallbackReasons {
		r.SetCounter(metrics.Labeled("check.satfast.fallback_total", "reason", reason), uint64(n))
	}
	return r.Snapshot()
}
