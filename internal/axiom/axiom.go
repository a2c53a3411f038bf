// Package axiom is a declarative, cat-style axiomatic memory-model
// engine. Where the operational oracles (internal/scmatch, internal/drf)
// hard-code one semantics each, axiom builds every candidate execution
// graph of a program — events with program order, plus all well-formed
// reads-from and coherence choices — and keeps those satisfying the
// relational constraints of a model written in a herd7-like language:
//
//	SC
//	let com = rf | co | fr
//	acyclic po | com as sc
//
// The bundled models (see Load) cover sequential consistency, TSO,
// release–acquire, and the paper's DRF0 discipline with
// hb = (po ∪ so)+ and race detection as a flag constraint; the engine is
// differentially checked against the operational oracles by
// internal/check.
package axiom

import (
	"time"

	"weakorder/internal/mem"
	"weakorder/internal/metrics"
	"weakorder/internal/program"
	"weakorder/internal/stats"
)

// Config bounds the candidate-execution search.
type Config struct {
	// MaxMemOpsPerThread truncates local runs that attempt more dynamic
	// memory operations, exactly like ideal.Config.MaxMemOpsPerThread
	// with skipped truncated paths; matching budgets on both sides keeps
	// the axiomatic and operational candidate spaces identical.
	// Zero means DefaultMaxMemOps.
	MaxMemOpsPerThread int
	// MaxSteps caps search-tree nodes across rf, co and so enumeration.
	// Zero means DefaultMaxSteps.
	MaxSteps int
	// Cancel, when non-nil, is polled periodically (every few hundred
	// search-tree nodes) during candidate enumeration; returning true
	// aborts the search with ErrCanceled. Cancellation is cooperative —
	// no goroutines — so an abandoned search leaks nothing. It is how
	// callers impose wall-clock deadlines on a check.
	Cancel func() bool
	// StopWhenFlagged stops a Check as soon as every flag constraint has
	// fired at least once (Outcomes are then partial) — the analogue of
	// drf.Check's stop-at-first-race default.
	StopWhenFlagged bool
	// Metrics, when non-nil, receives engine counters and a per-model
	// timing histogram.
	Metrics *metrics.Registry
}

// Defaults for Config fields.
const (
	DefaultMaxMemOps = 8
	DefaultMaxSteps  = 4 << 20
)

// Fixed bounds of the candidate search. Exceeding maxRunsPerThread
// (complete local runs per thread) or maxValuesPerAddr (an address's
// value domain) makes the result incomplete, as does examining more
// than maxCandidates complete rf/co candidates.
const (
	maxRunsPerThread = 512
	maxValuesPerAddr = 64
	maxCandidates    = 1 << 20
)

func (c Config) withDefaults() Config {
	if c.MaxMemOpsPerThread <= 0 {
		c.MaxMemOpsPerThread = DefaultMaxMemOps
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = DefaultMaxSteps
	}
	return c
}

// timingBounds buckets per-model check latencies (microseconds).
var timingBounds = stats.ExpBounds(1, 2, 24)

// Outcomes returns the observable results of every consistent candidate
// execution of p under model m, keyed by mem.Result.Key() — the
// axiomatic analogue of scmatch.Outcomes. Flag constraints are not
// evaluated; use Check for those.
func Outcomes(p *program.Program, m *Model, cfg Config) (map[string]mem.Result, Stats, error) {
	v, err := run(p, m, cfg, false)
	if err != nil {
		return nil, Stats{}, err
	}
	return v.Outcomes, v.Stats, nil
}

// Check evaluates model m over program p: the consistent outcome set
// plus, per flag constraint, how many consistent candidates it marked
// (under the bundled drf0 model, Flags["race"] > 0 means some
// SC-consistent execution has a data race).
func Check(p *program.Program, m *Model, cfg Config) (*Verdict, error) {
	return run(p, m, cfg, true)
}

func run(p *program.Program, m *Model, cfg Config, wantFlags bool) (*Verdict, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := newSearcher(p, m, &cfg, wantFlags)
	start := time.Now()
	err := s.run()
	if reg := cfg.Metrics; reg != nil {
		st := &s.verdict.Stats
		reg.Counter("axiom.runs").Add(uint64(st.Runs))
		reg.Counter("axiom.skeletons").Add(uint64(st.Skeletons))
		reg.Counter("axiom.candidates").Add(uint64(st.Candidates))
		reg.Counter("axiom.consistent").Add(uint64(st.Consistent))
		reg.Counter("axiom.pruned").Add(uint64(st.Pruned))
		reg.Counter("axiom.sync_orders").Add(uint64(st.SyncOrders))
		reg.Counter("axiom.steps").Add(uint64(st.Steps))
		if !st.Complete {
			reg.Counter("axiom.incomplete").Inc()
		}
		reg.Histogram("axiom.check.micros."+m.Name, timingBounds).
			Observe(uint64(time.Since(start).Microseconds()))
	}
	if err != nil {
		return nil, err
	}
	return &s.verdict, nil
}
