// Package check is the differential model-checking and fuzzing
// subsystem: it continuously adjudicates the paper's Definition 2
// contract at scale. A deterministic seeded campaign generates programs
// (race-free and racy, via internal/gen), runs each across a
// policy × topology × caches matrix on internal/machine, and classifies
// every (program, config, outcome) against the idealized-architecture
// oracles:
//
//   - runs under the SC policy must appear sequentially consistent;
//   - DRF0 programs must appear sequentially consistent on every weakly
//     ordered policy (Definition 2 — violations are simulator or policy
//     bugs);
//   - racy programs (and the Unconstrained policy) feed a coverage table
//     of observed non-SC outcomes per policy.
//
// On any violation an automatic shrinker (shrink.go) delta-debugs the
// program IR to a minimal reproducer, which is emitted as round-tripped
// litmus text plus a JSON report into a corpus directory (corpus.go);
// the committed corpus replays as a regression suite.
//
// Every observed result gets one appears-SC question (Lemma 1), answered
// per program on one path: a program-local memo answers repeated
// observations and scmatch.Decide the rest — the polynomial saturation
// fast path (internal/sat) first, a budgeted result-directed search for
// what it hands on. Workers share no oracle state.
package check

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"weakorder/internal/cache"
	"weakorder/internal/ctlplane"
	"weakorder/internal/drf"
	"weakorder/internal/faults"
	"weakorder/internal/gen"
	"weakorder/internal/ideal"
	"weakorder/internal/machine"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/sim"
	"weakorder/internal/splitmix"
)

// Program classes.
const (
	// ClassDRF: the program obeys DRF0 (by construction or by bounded
	// exhaustive check) and is covered by the Definition 2 oracle.
	ClassDRF = "drf"
	// ClassRacy: the program races (or its DRF check overran, which the
	// Summary records as a skip); its outcomes feed the coverage table
	// only.
	ClassRacy = "racy"
)

// FaultHook mutates a simulation result after the machine runs — a
// test-only knob for deliberately breaking a policy so the violation
// pipeline (detection, shrinking, corpus emission) can be exercised and
// its acceptance criteria pinned. Production campaigns leave it nil.
type FaultHook func(cfg machine.Config, p *program.Program, res *machine.RunResult)

// CampaignConfig parameterizes a campaign. The zero value of every field
// has a usable default except Programs, which must be positive.
type CampaignConfig struct {
	// Seed derives every random stream in the campaign: generator seeds
	// and machine seeds are mixed from (Seed, program index, config
	// index, run index), never from worker identity, so the campaign's
	// Summary is identical for any Workers value.
	Seed int64
	// Programs is the number of generated programs.
	Programs int
	// Policies selects the policy axis (default policy.All()).
	Policies []policy.Kind
	// Topologies selects the interconnect axis (default bus + network;
	// machine.TopoMesh adds the 2D-mesh interconnect).
	Topologies []machine.Topology
	// Procs is a floor on total processors per simulated machine: every
	// program is padded with idle processors up to this size (0 = just
	// the program's threads). The big-machine campaigns run the same
	// programs at 16/64/256 procs this way.
	Procs int
	// DirMode selects the directory sharer representation for every
	// cached matrix row (default full-map; limited-pointer and
	// coarse-vector must produce identical outcomes — campaigns under
	// those modes are differential tests of the scalable directories).
	DirMode cache.DirMode
	// SeedsPerConfig is the number of machine seeds each (program,
	// config) pair runs under (default 2; negative is an error).
	SeedsPerConfig int
	// Workers bounds the worker pool (default runtime.GOMAXPROCS(0);
	// negative is an error).
	Workers int
	// CorpusDir, when non-empty, receives a .litmus + .json reproducer
	// pair for every violation.
	CorpusDir string
	// Fault is the test-only fault hook; see FaultHook.
	Fault FaultHook
	// Journal, when non-empty, is the path of the campaign's append-only
	// progress journal: every completed program's outcome is written as a
	// checksummed record, fsynced, before the campaign moves on. A killed
	// campaign restarted with the same configuration plus Resume replays
	// the journaled outcomes and re-checks only the remainder, producing
	// a Summary byte-identical to an uninterrupted run (deadlines off).
	Journal string
	// Resume replays an existing journal (see Journal) instead of
	// truncating it. The journal's recorded campaign identity — seed,
	// program count, config matrix, fault plan, deadline, and checker
	// code generation — must match this configuration exactly.
	Resume bool
	// CheckDeadline, when positive, bounds the wall-clock time of each
	// oracle decision (saturation fast path, result-directed search,
	// DRF classification). An over-budget check is cooperatively
	// canceled and recorded as a SkipRecord in the Summary instead of
	// hanging its worker. Zero disables deadlines, which is required for
	// byte-reproducible summaries (a skip depends on host speed).
	CheckDeadline time.Duration
	// Faults, when non-nil and enabled, arms the deterministic
	// interconnect fault injector on every cached matrix row (the
	// no-cache rows have no retry protocol and run fault-free). The
	// hardened protocol must absorb the faults: DRF0 programs still
	// appear SC, and a watchdog death becomes a KindLiveness violation
	// with a shrunk reproducer instead of aborting the campaign.
	Faults *faults.Plan
	// Logf, when non-nil, receives log lines: corpus recovery, resume,
	// text progress lines, and the "campaign done" line.
	Logf func(format string, args ...interface{})
	// ProgressJSON, when non-nil, receives structured progress lines: one
	// JSON object per line, the same payload the control plane's
	// /progress endpoint serves, emitted at most once per ProgressEvery.
	// Progress lines are side output only — the Summary stays
	// byte-deterministic regardless of them, Workers, or scheduling.
	ProgressJSON io.Writer
	// ProgressEvery is the minimum interval between progress lines
	// (default 1s when ProgressJSON is set). When positive with
	// ProgressJSON nil, the same snapshot goes to Logf as a text line
	// ("progress: done/total programs, sims, violations, prog/s")
	// instead. Both count programs resumed from a journal as done, and
	// neither counts them in the rate.
	ProgressEvery time.Duration
	// Listen, when non-empty, serves the campaign control plane
	// (internal/ctlplane) on the given TCP address for the duration of
	// the campaign: /healthz, /metrics, /progress (+SSE stream),
	// /violations (+SSE tail), /summary, and /debug/pprof. The server
	// observes the campaign through atomic counters and an append-only
	// feed; the Summary stays byte-identical with or without it. Use
	// ":0" to bind an ephemeral port and OnListen to learn it.
	Listen string
	// OnListen, when non-nil, receives the control plane's bound address
	// once it is serving.
	OnListen func(addr string)
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if len(c.Policies) == 0 {
		c.Policies = policy.All()
	}
	if len(c.Topologies) == 0 {
		c.Topologies = []machine.Topology{machine.TopoBus, machine.TopoNetwork}
	}
	if c.SeedsPerConfig == 0 {
		c.SeedsPerConfig = 2
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Search budgets. The DRF classification enumerates small generated
// programs completely well inside these; the result-directed search is
// bounded by states visited, not by operations per thread, so spin-loop
// results stay decidable.
const (
	oracleMemOpsPerThread = 16
	drfCheckMaxPaths      = 100_000
	campaignMaxCycles     = 500_000
	shrinkMaxCycles       = 200_000
	// Liveness shrinking uses a tighter watchdog: a wedged candidate burns
	// its whole cycle budget, so the shrinker's per-candidate cost is the
	// budget itself.
	livenessShrinkMaxCycles = 50_000
	// maxShrinkTries bounds the shrinker's candidate evaluations per
	// violation.
	maxShrinkTries = 400
)

// oracleMatchMaxStates bounds the result-directed search. It is a
// variable only so that a test can make searches overrun.
var oracleMatchMaxStates = 300_000

// searchOnly answers every appears-SC query by the result-directed
// search alone, without the saturation fast path (internal/sat). It is
// the reference path the fast path is checked against: verdicts are
// identical either way within the search budget, and only the oracle
// accounting differs. It is a variable only so that tests can select it.
var searchOnly bool

// shrinkBudget is the watchdog of the shrink probes for a violation
// whose run took cycles. A candidate is a reduction of that run's
// program, and the finishing probes measured need at most 2.61x its
// cycles (under severe faults), so a probe still running at 8x has
// almost always wedged: it now costs a few original runs instead of
// shrinkMaxCycles. A probe the watchdog stops is rejected, so a tighter
// budget can keep a larger reproducer but never accepts a
// non-reproducer.
func shrinkBudget(cycles uint64) uint64 {
	return min(shrinkMaxCycles, 8*cycles+1_000)
}

// boundedDRFConfig bounds the DRF classification.
func boundedDRFConfig() drf.CheckConfig {
	return drf.CheckConfig{Enum: ideal.EnumConfig{
		Interp:        ideal.Config{MaxMemOpsPerThread: oracleMemOpsPerThread},
		SkipTruncated: true,
		MaxPaths:      drfCheckMaxPaths,
		Reduce:        true,
	}}
}

// genSpec is one entry of the generator catalog. Shapes are kept small
// enough that the DRF classification usually enumerates every execution.
type genSpec struct {
	name  string
	class string // ClassDRF for by-construction generators, "" to decide by checking
	make  func(seed int64) *program.Program
}

func generators() []genSpec {
	return []genSpec{
		{"racefree", ClassDRF, func(s int64) *program.Program {
			return gen.RaceFree(gen.RaceFreeConfig{
				Procs: 2, Locks: 1, SharedPerLock: 2, PrivatePerProc: 1,
				Sections: 1, OpsPerSection: 2, PrivateOps: 1,
			}, s)
		}},
		{"racefree-ttas", ClassDRF, func(s int64) *program.Program {
			return gen.RaceFree(gen.RaceFreeConfig{
				Procs: 2, Locks: 1, SharedPerLock: 1, PrivatePerProc: 1,
				Sections: 1, OpsPerSection: 1, PrivateOps: 1, TTAS: true,
			}, s)
		}},
		{"handoff", ClassDRF, func(s int64) *program.Program {
			return gen.Handoff(gen.HandoffConfig{Stages: 2, Items: 2, Work: 1}, s)
		}},
		{"racy", "", func(s int64) *program.Program {
			return gen.Racy(gen.RacyConfig{Procs: 2, Vars: 3, OpsPerProc: 5, SyncFraction: 4}, s)
		}},
	}
}

// Matrix expands the policy and topology axes into concrete machine
// configurations: weakly ordered policies require caches, SC and
// Unconstrained run both with and without them. The network rows get
// high jitter, which is what surfaces weak behavior (message
// reordering) in practice.
func Matrix(policies []policy.Kind, topos []machine.Topology) []machine.Config {
	var out []machine.Config
	for _, topo := range topos {
		for _, pol := range policies {
			cacheModes := []bool{true}
			if pol == policy.SC || pol == policy.Unconstrained {
				cacheModes = []bool{false, true}
			}
			for _, caches := range cacheModes {
				cfg := machine.Config{
					Policy:    pol,
					Topology:  topo,
					Caches:    caches,
					MaxCycles: campaignMaxCycles,
				}
				if topo == machine.TopoNetwork {
					cfg.NetJitter = 20
				}
				out = append(out, cfg)
			}
		}
	}
	return out
}

// deriveSeed derives an independent deterministic seed stream from
// (campaign, parts), chaining splitmix64 outputs.
func deriveSeed(campaign int64, parts ...uint64) int64 {
	x := splitmix.New(uint64(campaign)).Next()
	for _, p := range parts {
		x = splitmix.New(x ^ p).Next()
	}
	return int64(x >> 1) // non-negative
}

func simTime(v int64) sim.Time { return sim.Time(v) }

// Run executes a campaign and returns its deterministic summary.
func Run(cfg CampaignConfig) (*Summary, error) {
	cfg = cfg.withDefaults()
	if cfg.Programs <= 0 {
		return nil, fmt.Errorf("check: CampaignConfig.Programs must be positive")
	}
	matrix := Matrix(cfg.Policies, cfg.Topologies)
	if len(matrix) == 0 {
		return nil, fmt.Errorf("check: empty config matrix")
	}
	if cfg.Procs < 0 || cfg.SeedsPerConfig < 0 || cfg.Workers < 0 {
		return nil, fmt.Errorf("check: CampaignConfig.Procs (%d), SeedsPerConfig (%d) and Workers (%d) must be non-negative",
			cfg.Procs, cfg.SeedsPerConfig, cfg.Workers)
	}
	for i := range matrix {
		if matrix[i].Caches {
			matrix[i].DirMode = cfg.DirMode
		}
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
		for i := range matrix {
			if matrix[i].Caches {
				matrix[i].Faults = cfg.Faults
			}
		}
	}
	c := &campaign{cfg: cfg, matrix: matrix}

	if cfg.CorpusDir != "" {
		// Recovery pass before any writes: a crash mid-write in an
		// earlier (pre-hardening) run may have left torn entries that
		// would poison replay; quarantine them instead of failing later.
		if _, quarantined, err := RecoverCorpus(cfg.CorpusDir); err != nil {
			return nil, fmt.Errorf("check: corpus recovery: %w", err)
		} else if len(quarantined) > 0 && cfg.Logf != nil {
			for _, q := range quarantined {
				cfg.Logf("corpus: quarantined %s: %s", q.Name, q.Reason)
			}
		}
	}

	if cfg.Journal != "" {
		j, done, err := openJournal(cfg.Journal, c.identity(), cfg.Resume)
		if err != nil {
			return nil, err
		}
		defer j.Close()
		c.journal = j
		c.done = done
		if cfg.Logf != nil && len(done) > 0 {
			cfg.Logf("resume: %d/%d programs already journaled, checking the remaining %d",
				len(done), cfg.Programs, cfg.Programs-len(done))
		}
	} else if cfg.Resume {
		return nil, fmt.Errorf("check: Resume requires Journal")
	}

	start := time.Now()
	if cfg.Listen != "" || cfg.ProgressJSON != nil || cfg.ProgressEvery > 0 {
		c.pub = newPublisher(cfg, matrix, start)
		if c.journal != nil {
			c.journal.onAppend = c.pub.noteJournalAppend
		}
	}
	if cfg.Listen != "" {
		srv, serr := ctlplane.Serve(cfg.Listen, c.pub)
		if serr != nil {
			return nil, serr
		}
		defer srv.Close()
		if cfg.OnListen != nil {
			cfg.OnListen(srv.Addr())
		}
	}
	outs, err := c.runPool()
	if err != nil {
		return nil, err
	}
	s := summarize(cfg, len(matrix), outs)

	elapsed := time.Since(start).Seconds()
	hit := 0.0
	if s.Oracle.Queries > 0 {
		hit = float64(s.Oracle.L1Hits+s.Oracle.SatDecided) / float64(s.Oracle.Queries)
	}
	satRate := 0.0
	if miss := s.Oracle.Queries - s.Oracle.L1Hits; miss > 0 {
		satRate = float64(s.Oracle.SatDecided) / float64(miss)
	}
	s.Perf = &Perf{
		Elapsed:        elapsed,
		ProgramsPerSec: float64(s.Programs) / elapsed,
		SimsPerSec:     float64(s.Sims) / elapsed,
		OracleHitRate:  hit,
		SatFastRate:    satRate,
	}
	if cfg.Logf != nil {
		cfg.Logf("campaign done: %d programs, %d sims, %d violations (%s)",
			s.Programs, s.Sims, len(s.Violations), s.Perf)
	}
	return s, nil
}

// summarize folds the per-program outcomes into the campaign Summary.
// It is a pure function of the outcome slice — every statistic,
// including the oracle's, is attributed to a program — so a resumed
// campaign that mixes journaled and freshly computed outcomes produces a
// Summary byte-identical to an uninterrupted run's.
func summarize(cfg CampaignConfig, configs int, outs []progOutcome) *Summary {
	s := &Summary{
		Seed:       cfg.Seed,
		Programs:   cfg.Programs,
		Configs:    configs,
		Faults:     cfg.Faults,
		ByClass:    make(map[string]int),
		Violations: []ViolationReport{},
	}
	covSims := make(map[CoverageRow]int)
	covNonSC := make(map[CoverageRow]int)
	covKeys := make(map[CoverageRow]map[string]bool)
	for _, out := range outs {
		s.ByClass[out.Class]++
		s.Sims += len(out.Sims)
		s.WatchdogDeaths += out.Watchdogs
		s.WorkerPanics += out.Panics
		s.Violations = append(s.Violations, out.Violations...)
		s.Skips = append(s.Skips, out.Skips...)
		for _, rec := range out.Sims {
			cell := CoverageRow{Policy: rec.Policy, Class: out.Class}
			covSims[cell]++
			if rec.Skipped != "" {
				continue
			}
			if !rec.AppearsSC {
				covNonSC[cell]++
				if covKeys[cell] == nil {
					covKeys[cell] = make(map[string]bool)
				}
				covKeys[cell][rec.Key] = true
			}
			s.Oracle.Queries++
			if !rec.L1 && rec.SatFallback != "" {
				s.Oracle.SatFallbacks++
				if s.Oracle.SatFallbackReasons == nil {
					s.Oracle.SatFallbackReasons = make(map[string]int)
				}
				s.Oracle.SatFallbackReasons[rec.SatFallback]++
			}
			switch {
			case rec.L1:
				s.Oracle.L1Hits++
			case rec.Sat:
				s.Oracle.SatDecided++
				if rec.AppearsSC {
					s.Oracle.SatAccepted++
				} else {
					s.Oracle.SatRejected++
				}
			default:
				s.Oracle.Fallbacks++
			}
		}
	}
	for _, sk := range s.Skips {
		switch {
		case sk.Reason == "deadline":
			s.DeadlineSkips++
		case sk.Stage == "oracle" && sk.Reason == "budget":
			s.Oracle.BudgetExceeded++
		}
	}
	for cell, sims := range covSims {
		s.Coverage = append(s.Coverage, CoverageRow{
			Policy:        cell.Policy,
			Class:         cell.Class,
			Sims:          sims,
			NonSC:         covNonSC[cell],
			DistinctNonSC: len(covKeys[cell]),
		})
	}
	sortSummary(s)
	return s
}
