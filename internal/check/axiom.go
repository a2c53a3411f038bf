package check

import (
	"errors"
	"fmt"
	"sort"

	"weakorder/internal/axiom"
	"weakorder/internal/drf"
	"weakorder/internal/hb"
	"weakorder/internal/ideal"
	"weakorder/internal/litmus"
	"weakorder/internal/metrics"
	"weakorder/internal/program"
	"weakorder/internal/scmatch"
)

// Axiomatic-vs-operational differential budgets. Only the per-thread
// memory-op budget can be overridden (AxiomDiffConfig.MemOpsPerThread),
// and it is deliberately smaller than oracleMemOpsPerThread: the
// axiomatic side enumerates rf and co combinatorially, so its cost grows
// much faster with event count than the interleaving oracle's.
const (
	axiomDiffMemOps    = 6
	axiomDiffMaxSteps  = 1 << 21
	axiomDiffEnumPaths = 200_000
)

// AxiomDiffConfig bounds one axiomatic-vs-operational comparison. Both
// sides run under the same per-thread memory-op budget with truncated
// runs discarded, so their outcome universes coincide exactly.
type AxiomDiffConfig struct {
	// MemOpsPerThread is the shared per-thread memory-op budget
	// (default 6).
	MemOpsPerThread int
	// Metrics, when set, receives axiom.diff.* counters in addition to
	// the engine's own axiom.* counters.
	Metrics *metrics.Registry
}

func (c *AxiomDiffConfig) memOps() int {
	if c.MemOpsPerThread > 0 {
		return c.MemOpsPerThread
	}
	return axiomDiffMemOps
}

// AxiomDiffResult reports one comparison. When Skipped is set, one side
// exhausted a budget and no verdict was reached for that program.
type AxiomDiffResult struct {
	Program    string
	Skipped    bool
	SkipReason string

	// SC differential: axiomatic-SC outcome set vs scmatch.Outcomes.
	SCAgree   bool
	AxiomOnly []string // outcome keys only the axiomatic side produced
	OperOnly  []string // outcome keys only the operational side produced

	// DRF differential: the drf0 model's race flag vs drf.Check.
	AxiomRacy bool
	OperRacy  bool
	DRFAgree  bool

	// Stats is the SC-side axiomatic search telemetry.
	Stats axiom.Stats
}

// Agree reports full agreement on both differentials.
func (r *AxiomDiffResult) Agree() bool { return !r.Skipped && r.SCAgree && r.DRFAgree }

// String renders a one-line verdict for CLI use.
func (r *AxiomDiffResult) String() string {
	switch {
	case r.Skipped:
		return fmt.Sprintf("%s: skipped (%s)", r.Program, r.SkipReason)
	case r.Agree():
		return fmt.Sprintf("%s: agree (sc outcomes and race verdict; racy=%v, %d candidates)",
			r.Program, r.AxiomRacy, r.Stats.Candidates)
	default:
		return fmt.Sprintf("%s: DISAGREE (axiom-only=%v oper-only=%v axiomRacy=%v operRacy=%v)",
			r.Program, r.AxiomOnly, r.OperOnly, r.AxiomRacy, r.OperRacy)
	}
}

// AxiomDiff cross-checks the declarative axiomatic engine against the
// operational oracles on one program: the axiomatic-SC outcome set must
// equal scmatch.Outcomes (exhaustive idealized interleaving), and the
// drf0 model's race flag must match drf.Check's classification. This is
// the standing differential between the paper's two readings of a memory
// model — consistency predicate over candidate executions versus
// interleaving machine — so a divergence is a bug in one of the two
// engines, never a legitimate model difference.
func AxiomDiff(p *program.Program, cfg AxiomDiffConfig) (AxiomDiffResult, error) {
	res := AxiomDiffResult{Program: p.Name}
	budget := cfg.memOps()
	axCfg := axiom.Config{
		MaxMemOpsPerThread: budget,
		MaxSteps:           axiomDiffMaxSteps,
		Metrics:            cfg.Metrics,
	}
	enumCfg := ideal.EnumConfig{
		Interp:        ideal.Config{MaxMemOpsPerThread: budget},
		SkipTruncated: true,
		MaxPaths:      axiomDiffEnumPaths,
		Reduce:        true,
	}

	skip := func(reason string) (AxiomDiffResult, error) {
		res.Skipped = true
		res.SkipReason = reason
		countDiff(cfg.Metrics, &res)
		return res, nil
	}

	// SC outcome sets.
	axOuts, st, err := axiom.Outcomes(p, axiom.MustLoad("sc"), axCfg)
	if err != nil {
		return res, fmt.Errorf("axiomatic sc: %w", err)
	}
	res.Stats = st
	if !st.Complete {
		return skip("axiomatic SC search incomplete")
	}
	opOuts, err := scmatch.Outcomes(p, enumCfg)
	if errors.Is(err, ideal.ErrBudget) {
		return skip("operational enumeration over budget")
	}
	if err != nil {
		return res, fmt.Errorf("operational sc: %w", err)
	}
	for k := range axOuts {
		if _, ok := opOuts[k]; !ok {
			res.AxiomOnly = append(res.AxiomOnly, k)
		}
	}
	for k := range opOuts {
		if _, ok := axOuts[k]; !ok {
			res.OperOnly = append(res.OperOnly, k)
		}
	}
	sort.Strings(res.AxiomOnly)
	sort.Strings(res.OperOnly)
	res.SCAgree = len(res.AxiomOnly) == 0 && len(res.OperOnly) == 0

	// DRF0 race classification.
	v, err := axiom.Check(p, axiom.MustLoad("drf0"), axiom.Config{
		MaxMemOpsPerThread: budget,
		MaxSteps:           axiomDiffMaxSteps,
		StopWhenFlagged:    true,
		Metrics:            cfg.Metrics,
	})
	if err != nil {
		return res, fmt.Errorf("axiomatic drf0: %w", err)
	}
	if !v.Stats.Complete {
		return skip("axiomatic DRF0 search incomplete")
	}
	opv, err := drf.Check(p, hb.SyncAll, drf.CheckConfig{Enum: enumCfg})
	if errors.Is(err, ideal.ErrBudget) {
		return skip("operational DRF check over budget")
	}
	if err != nil {
		return res, fmt.Errorf("operational drf: %w", err)
	}
	res.AxiomRacy = v.Flags["race"] > 0
	res.OperRacy = !opv.DRF
	res.DRFAgree = res.AxiomRacy == res.OperRacy

	countDiff(cfg.Metrics, &res)
	return res, nil
}

// litmusDiffBudget picks the shared per-thread memory-op budget per
// litmus program: small enough to keep spin loops enumerable on the
// axiomatic side, large enough to cover the longest straight-line
// thread.
func litmusDiffBudget(name string) int {
	switch name {
	case "mp", "mp-racy-spin":
		return 6
	case "critsec-2p-1r":
		// One lock acquisition is 4 ops (TAS, load, store, unlock);
		// budget 7 admits up to 3 failed TAS retries while keeping the
		// candidate space enumerable under the default step cap.
		return 7
	default:
		return 8
	}
}

// AxiomCampaignConfig parameterizes an axiomatic-vs-operational
// differential sweep (see AxiomCampaign).
type AxiomCampaignConfig struct {
	// Seed derives the generator seed streams.
	Seed int64
	// PerSpec is the number of generated programs per generator spec
	// (default 25; the catalog has 4 specs).
	PerSpec int
	// Metrics, when set, receives the axiom.* engine counters and the
	// axiom.diff.* verdict counters.
	Metrics *metrics.Registry
	// Logf, when set, receives one progress line per program.
	Logf func(format string, args ...interface{})
}

// AxiomCampaignSummary aggregates a differential sweep.
type AxiomCampaignSummary struct {
	Programs      int // total comparisons attempted
	Compared      int // comparisons that reached a verdict on both sides
	Skipped       int // comparisons abandoned on a budget
	Disagreements []AxiomDiffResult
}

// AxiomCampaign runs the standing axiomatic-vs-operational differential
// over the full litmus suite (with per-program matched budgets) and a
// deterministic generator mix: for every program, the axiomatic-SC
// outcome set must equal exhaustive idealized interleaving and the drf0
// race flag must match drf.Check. Any disagreement is an engine bug.
func AxiomCampaign(cfg AxiomCampaignConfig) (*AxiomCampaignSummary, error) {
	perSpec := cfg.PerSpec
	if perSpec <= 0 {
		perSpec = 25
	}
	sum := &AxiomCampaignSummary{}
	record := func(res AxiomDiffResult) {
		sum.Programs++
		if res.Skipped {
			sum.Skipped++
		} else {
			sum.Compared++
			if !res.Agree() {
				sum.Disagreements = append(sum.Disagreements, res)
			}
		}
		if cfg.Logf != nil {
			cfg.Logf("%s", res.String())
		}
	}
	for _, p := range litmus.All() {
		res, err := AxiomDiff(p, AxiomDiffConfig{
			MemOpsPerThread: litmusDiffBudget(p.Name),
			Metrics:         cfg.Metrics,
		})
		if err != nil {
			return nil, fmt.Errorf("litmus %s: %w", p.Name, err)
		}
		record(res)
	}
	for si, spec := range generators() {
		for s := 0; s < perSpec; s++ {
			p := spec.make(deriveSeed(cfg.Seed, uint64(si), uint64(s)))
			res, err := AxiomDiff(p, AxiomDiffConfig{Metrics: cfg.Metrics})
			if err != nil {
				return nil, fmt.Errorf("%s/%d: %w", spec.name, s, err)
			}
			record(res)
		}
	}
	return sum, nil
}

func countDiff(reg *metrics.Registry, r *AxiomDiffResult) {
	if reg == nil {
		return
	}
	switch {
	case r.Skipped:
		reg.Counter("axiom.diff.skipped").Inc()
	case r.Agree():
		reg.Counter("axiom.diff.agree").Inc()
	default:
		reg.Counter("axiom.diff.disagree").Inc()
	}
}
