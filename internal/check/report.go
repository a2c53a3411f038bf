package check

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"weakorder/internal/cache"
	"weakorder/internal/exp"
	"weakorder/internal/faults"
	"weakorder/internal/machine"
	"weakorder/internal/policy"
)

// Violation kinds.
const (
	// KindSCPolicy: a run under the SC policy did not appear sequentially
	// consistent — the SC enforcement itself is broken.
	KindSCPolicy = "sc-policy"
	// KindDefinition2: a DRF0 program on a weakly ordered policy did not
	// appear sequentially consistent — the Definition 2 contract is
	// broken (a bug in the policy, the caches, or the interconnect).
	KindDefinition2 = "definition2"
	// KindLiveness: a run hit the cycle watchdog — the protocol wedged
	// (deadlock or livelock), typically because recovery failed under an
	// injected fault plan. The report carries the structured
	// LivenessReport rendering.
	KindLiveness = "liveness"
	// KindWorkerPanic: a campaign worker panicked while checking this
	// (program, config, seed) — a bug in the simulator, an oracle, or a
	// test hook. The panic is recovered, the report carries the panic
	// value and stack, the remaining seeds of the offending (program,
	// config) pair are quarantined, and the campaign continues.
	KindWorkerPanic = "worker-panic"
)

// ConfigDesc is the JSON-stable description of a machine configuration,
// sufficient to rebuild it for replay.
type ConfigDesc struct {
	Policy    string `json:"policy"`
	Topology  string `json:"topology"`
	Caches    bool   `json:"caches"`
	NetJitter int64  `json:"netJitter,omitempty"`
	// ExtraProcs and DirMode reproduce the big-machine campaign axes;
	// both are zero-valued (and omitted) for the classic matrix.
	ExtraProcs int    `json:"extraProcs,omitempty"`
	DirMode    string `json:"dirMode,omitempty"`
	// Faults records the fault plan active when the violation was found;
	// replay re-arms the identical plan.
	Faults *faults.Plan `json:"faults,omitempty"`
}

// describeConfig projects the fields replay needs out of a machine.Config.
func describeConfig(cfg machine.Config) ConfigDesc {
	d := ConfigDesc{
		Policy:     cfg.Policy.String(),
		Topology:   cfg.Topology.String(),
		Caches:     cfg.Caches,
		NetJitter:  int64(cfg.NetJitter),
		ExtraProcs: cfg.ExtraProcs,
		Faults:     cfg.Faults,
	}
	if cfg.DirMode != cache.DirFullMap {
		d.DirMode = cfg.DirMode.String()
	}
	return d
}

// Machine rebuilds the machine configuration the description names.
func (d ConfigDesc) Machine() (machine.Config, error) {
	pol, err := policy.Parse(d.Policy)
	if err != nil {
		return machine.Config{}, err
	}
	topo, err := machine.ParseTopology(d.Topology)
	if err != nil {
		return machine.Config{}, err
	}
	dirMode, err := cache.ParseDirMode(d.DirMode)
	if err != nil {
		return machine.Config{}, err
	}
	return machine.Config{
		Policy:     pol,
		Topology:   topo,
		Caches:     d.Caches,
		NetJitter:  simTime(d.NetJitter),
		ExtraProcs: d.ExtraProcs,
		DirMode:    dirMode,
		Faults:     d.Faults,
	}, nil
}

// ViolationReport records one contract violation: where it was found,
// how to reproduce it, and the minimal program the shrinker reached.
type ViolationReport struct {
	// Kind names the broken contract: one of the Kind* constants.
	Kind string `json:"kind"`
	// Program is the (shrunk) program's name.
	Program string `json:"program"`
	// Generator and GenSeed name the generator call that produced the
	// original program.
	Generator string `json:"generator"`
	GenSeed   int64  `json:"genSeed"`
	// ProgramIndex is the campaign slot the program occupied.
	ProgramIndex int `json:"programIndex"`
	// Config is the machine configuration the violation occurred on.
	Config ConfigDesc `json:"config"`
	// MachineSeed seeds the machine's randomized latencies.
	MachineSeed int64 `json:"machineSeed"`
	// Outcome is the violating result's canonical key, observed on the
	// original (unshrunk) program.
	Outcome string `json:"outcome"`
	// Instructions counts the shrunk program's instructions.
	Instructions int `json:"instructions"`
	// ShrinkSteps logs each accepted reduction, in order.
	ShrinkSteps []string `json:"shrinkSteps"`
	// Litmus is the shrunk program's round-tripped litmus text.
	Litmus string `json:"litmus"`
	// Liveness is the rendered LivenessReport for KindLiveness violations
	// (which processors stalled, on which lines, fault counters).
	Liveness string `json:"liveness,omitempty"`
	// Stack is the recovered panic value plus goroutine stack for
	// KindWorkerPanic violations.
	Stack string `json:"stack,omitempty"`
	// Checksum fingerprints the entry (sha256 over the report with this
	// field blank); the corpus store verifies it on load. Empty on
	// entries written before checksumming existed.
	Checksum string `json:"checksum,omitempty"`
}

// SkipRecord logs one check that stopped undecided: a simulation's
// appears-SC decision (stage "oracle") or the program's DRF
// classification (stage "classify", recorded with a zero config and
// seed) overran its search budget, the local-step bound or its
// per-check wall-clock deadline (CampaignConfig.CheckDeadline). An
// undecided check is recorded here instead of counting as a pass; an
// oracle skip adjudicates nothing, and a classify skip leaves the
// program racy (coverage only).
type SkipRecord struct {
	ProgramIndex int        `json:"programIndex"`
	Config       ConfigDesc `json:"config"`
	MachineSeed  int64      `json:"machineSeed"`
	// Stage names the abandoned computation: "oracle" or "classify".
	Stage string `json:"stage"`
	// Reason names the overrun: "budget" (the search exhausted its state
	// or path budget; deterministic), "local-loop" (a thread ran
	// program.MaxLocalSteps register-only instructions in a row;
	// deterministic) or "deadline" (host-speed dependent).
	Reason string `json:"reason"`
}

// CoverageRow aggregates one (policy, program class) cell of the
// campaign: how many simulations ran, how many produced results no
// idealized execution produces, and how many distinct such results were
// seen. Non-SC outcomes are expected (and interesting) for racy programs
// on weak policies; for DRF programs on weakly ordered policies they are
// violations and appear in Violations instead.
type CoverageRow struct {
	Policy        string `json:"policy"`
	Class         string `json:"class"`
	Sims          int    `json:"sims"`
	NonSC         int    `json:"nonSC"`
	DistinctNonSC int    `json:"distinctNonSC"`
}

// OracleStats counts how the appears-SC queries were answered. All
// fields are deterministic for a fixed campaign configuration.
type OracleStats struct {
	// Queries is the number of appears-SC decisions requested (including
	// those absorbed by program-local L1 memos). Every query is exactly
	// one of L1Hits, SatDecided, or Fallbacks.
	Queries int `json:"queries"`
	// L1Hits counts queries answered by the program-local memo.
	L1Hits int `json:"l1Hits"`
	// Fallbacks counts queries that ran the result-directed search:
	// those the fast path handed on, or every non-L1 query on the
	// search-only reference path that tests select.
	Fallbacks int `json:"fallbacks"`
	// BudgetExceeded counts appears-SC decisions that exhausted their
	// search budget: the oracle-stage "budget" skips in Summary.Skips.
	// Such results adjudicate nothing and are not counted in Queries.
	BudgetExceeded int `json:"budgetExceeded"`
	// SatDecided counts queries the polynomial saturation fast path
	// (internal/sat) decided outright, without a search. It splits into
	// SatAccepted (verified-witness acceptances) and SatRejected
	// (necessary-edge contradictions). All three are zero on the
	// search-only reference path.
	SatDecided  int `json:"satDecided,omitempty"`
	SatAccepted int `json:"satAccepted,omitempty"`
	SatRejected int `json:"satRejected,omitempty"`
	// SatFallbacks counts queries the fast path handed to the search,
	// broken down by reason in SatFallbackReasons (ambiguous-rf,
	// co-incomplete, too-large, ...).
	SatFallbacks       int            `json:"satFallbacks,omitempty"`
	SatFallbackReasons map[string]int `json:"satFallbackReasons,omitempty"`
}

// Summary is a campaign's deterministic outcome: for a fixed
// CampaignConfig it is byte-identical across runs, worker counts, and
// schedules. Wall-clock measurements live in Perf, which is excluded
// from the JSON encoding.
type Summary struct {
	Seed     int64 `json:"seed"`
	Programs int   `json:"programs"`
	// Configs is the size of the policy × topology × caches matrix.
	Configs int `json:"configs"`
	// Faults is the campaign's fault plan (nil when fault-free).
	Faults *faults.Plan `json:"faults,omitempty"`
	// Sims is the total number of machine simulations.
	Sims int `json:"sims"`
	// WatchdogDeaths counts runs that hit the cycle watchdog; each also
	// appears as a KindLiveness violation. Must be zero for a healthy
	// protocol under any valid fault plan.
	WatchdogDeaths int `json:"watchdogDeaths"`
	// WorkerPanics counts panics recovered inside campaign workers; each
	// also appears as a KindWorkerPanic violation. Must be zero for a
	// healthy checker.
	WorkerPanics int `json:"workerPanics,omitempty"`
	// DeadlineSkips counts the Skips abandoned on the per-check deadline,
	// in either stage; budget skips are not counted here. Always zero
	// when CampaignConfig.CheckDeadline is unset — deadline skips depend
	// on wall-clock speed, so campaigns that must be byte-reproducible
	// (resume parity, cross-host comparison) run without a deadline.
	DeadlineSkips int `json:"deadlineSkips,omitempty"`
	// Skips lists the checks that stopped undecided, on a budget or a
	// deadline, sorted like Violations.
	Skips []SkipRecord `json:"skips,omitempty"`
	// ByClass counts programs per class ("drf", "racy").
	ByClass map[string]int `json:"byClass"`
	// Coverage has one row per (policy, class), sorted.
	Coverage []CoverageRow `json:"coverage"`
	// Violations lists every contract violation found, shrunk, sorted by
	// (program index, config name, machine seed). Empty (non-nil) when
	// the campaign is clean.
	Violations []ViolationReport `json:"violations"`
	// Oracle counts how the appears-SC queries were answered.
	Oracle OracleStats `json:"oracle"`

	// Perf holds wall-clock throughput; excluded from JSON so summaries
	// compare byte-identical across runs.
	Perf *Perf `json:"-"`
}

// Perf reports campaign throughput.
type Perf struct {
	// Elapsed is the campaign wall time in seconds.
	Elapsed float64
	// ProgramsPerSec and SimsPerSec are throughput over Elapsed.
	ProgramsPerSec float64
	SimsPerSec     float64
	// OracleHitRate is the fraction of appears-SC queries answered
	// without a search (L1 memo or the saturation fast path).
	OracleHitRate float64
	// SatFastRate is the fraction of L1-missing queries the polynomial
	// saturation stage decided without a search.
	SatFastRate float64
}

// String renders the perf line for logs.
func (p *Perf) String() string {
	return fmt.Sprintf("elapsed %.2fs, %.1f programs/s, %.1f sims/s, oracle hit rate %.1f%%, satfast %.1f%%",
		p.Elapsed, p.ProgramsPerSec, p.SimsPerSec, 100*p.OracleHitRate, 100*p.SatFastRate)
}

// JSON encodes the summary deterministically (map keys sorted, Perf
// excluded), with a trailing newline.
func (s *Summary) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// CoverageTable renders the coverage rows in the repository's standard
// experiment-table format.
func (s *Summary) CoverageTable() *exp.Table {
	t := &exp.Table{
		ID:      "Campaign",
		Title:   fmt.Sprintf("Differential campaign coverage (seed %d, %d programs, %d configs)", s.Seed, s.Programs, s.Configs),
		Headers: []string{"policy", "class", "sims", "non-SC", "distinct non-SC"},
		Notes: []string{
			"non-SC counts results no idealized execution produces",
			"DRF rows on SC/WO policies must show 0 (Definition 2); racy rows may not",
		},
	}
	for _, r := range s.Coverage {
		t.AddRow(r.Policy, r.Class, r.Sims, r.NonSC, r.DistinctNonSC)
	}
	return t
}

// sortSummary puts the aggregate slices in canonical order.
func sortSummary(s *Summary) {
	sort.Slice(s.Coverage, func(i, j int) bool {
		a, b := s.Coverage[i], s.Coverage[j]
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		return a.Class < b.Class
	})
	sort.Slice(s.Violations, func(i, j int) bool {
		a, b := s.Violations[i], s.Violations[j]
		if a.ProgramIndex != b.ProgramIndex {
			return a.ProgramIndex < b.ProgramIndex
		}
		if c := strings.Compare(configKey(a.Config), configKey(b.Config)); c != 0 {
			return c < 0
		}
		return a.MachineSeed < b.MachineSeed
	})
	sort.Slice(s.Skips, func(i, j int) bool {
		a, b := s.Skips[i], s.Skips[j]
		if a.ProgramIndex != b.ProgramIndex {
			return a.ProgramIndex < b.ProgramIndex
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if c := strings.Compare(configKey(a.Config), configKey(b.Config)); c != 0 {
			return c < 0
		}
		return a.MachineSeed < b.MachineSeed
	})
}

func configKey(d ConfigDesc) string {
	k := fmt.Sprintf("%s/%s/caches=%t/jitter=%d", d.Policy, d.Topology, d.Caches, d.NetJitter)
	if d.Faults != nil && d.Faults.Enabled() {
		k += "/faults=" + d.Faults.String()
	}
	return k
}
