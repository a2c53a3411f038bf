// Package weakorder is a library-scale reproduction of Adve & Hill,
// "Weak Ordering — A New Definition" (ISCA 1990): the DRF0
// synchronization model, weak ordering as a software/hardware contract
// (Definition 2), and cycle-level models of the hardware designs the
// paper discusses — sequentially consistent baselines, weak ordering per
// Dubois/Scheurich/Briggs (Definition 1), and the paper's new
// reserve-bit/counter implementation (Section 5.3) with the Section 6
// read-only-synchronization refinement.
//
// The package offers four layers:
//
//   - Programs: a small parallel IR with data and synchronization
//     operations, built fluently (NewProgram) or parsed from litmus text
//     (ParseProgram).
//   - The idealized architecture: exhaustive enumeration of sequentially
//     consistent executions (EnumerateSC, SCOutcomes) — the semantic
//     yardstick of Definition 2.
//   - Checkers: DRF0 verdicts via exhaustive happens-before analysis
//     (CheckDRF0) and scalable vector-clock race detection (DetectRaces);
//     an appears-sequentially-consistent oracle for observed hardware
//     results (AppearsSC).
//   - Axiomatic models: a declarative .cat-style engine (LoadModel,
//     AxiomOutcomes, AxiomCheck) that filters exhaustively constructed
//     candidate executions through relational axioms — the same memory
//     models stated as consistency predicates instead of machines, and
//     differentially checked against them (AxiomDiff).
//   - Machines: assembled multiprocessor simulations (Simulate) across
//     the paper's Figure 1 system classes and consistency policies, with
//     per-processor stall accounting.
//   - Campaigns: differential model checking at scale (Check) — generated
//     programs fuzzed across the machine matrix with every outcome
//     adjudicated against the Definition 2 oracles, and violations
//     shrunk to minimal litmus reproducers.
//
// Quickstart:
//
//	b := weakorder.NewProgram("mp")
//	data, flag := b.Var("data"), b.Var("flag")
//	p0 := b.Thread()
//	p0.StoreImm(data, 42)
//	p0.SyncStoreImm(flag, 1)
//	p1 := b.Thread()
//	p1.Label("spin")
//	p1.SyncLoad(weakorder.R1, flag)
//	p1.BeqImm(weakorder.R1, 0, "spin")
//	p1.Load(weakorder.R0, data)
//	prog := b.MustBuild()
//
//	verdict, _ := weakorder.CheckDRF0(prog)      // DRF0: yes
//	res, _ := weakorder.Simulate(prog, weakorder.MachineConfig{
//		Policy:   weakorder.WODef2,
//		Topology: weakorder.Network,
//		Caches:   true,
//	}, 1)
//	ok, _, _ := weakorder.AppearsSC(prog, res.Result) // true: Definition 2
package weakorder

import (
	"weakorder/internal/axiom"
	"weakorder/internal/cache"
	"weakorder/internal/check"
	"weakorder/internal/drf"
	"weakorder/internal/faults"
	"weakorder/internal/hb"
	"weakorder/internal/ideal"
	"weakorder/internal/lang"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/metrics"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/scmatch"
	"weakorder/internal/vclock"
)

// Core vocabulary (see the internal packages for full documentation).
type (
	// Addr is a word-granular memory address.
	Addr = mem.Addr
	// Value is the contents of one memory word.
	Value = mem.Value
	// OpKind classifies memory operations (Read, Write, SyncRead,
	// SyncWrite, SyncRMW).
	OpKind = mem.Kind
	// Op is one dynamic memory operation.
	Op = mem.Op
	// OpID identifies a dynamic operation (processor, program index).
	OpID = mem.OpID
	// Execution is a completed run: operations in completion order plus
	// final memory.
	Execution = mem.Execution
	// Result is an execution's observable outcome: every read's value
	// plus the final memory state. Its Reads are sorted by (processor,
	// index); Result.Read finds one by OpID.
	Result = mem.Result

	// Program is a multi-threaded program in the IR.
	Program = program.Program
	// ProgramBuilder assembles programs fluently.
	ProgramBuilder = program.Builder
	// ThreadBuilder assembles one thread's instructions.
	ThreadBuilder = program.ThreadBuilder
	// Reg names a thread register (R0..R15).
	Reg = program.Reg

	// SyncMode selects the synchronization model: DRF0 or the Section 6
	// refined model.
	SyncMode = hb.SyncMode
	// Race is a pair of conflicting, happens-before-unordered operations.
	Race = hb.Race
	// Verdict is a DRF0 check outcome.
	Verdict = drf.Verdict
	// DynamicRace is an online vector-clock race report.
	DynamicRace = vclock.Race

	// Policy selects the consistency enforcement hardware.
	Policy = policy.Kind
	// Topology selects the interconnect class.
	Topology = machine.Topology
	// MachineConfig parameterizes a simulated multiprocessor.
	MachineConfig = machine.Config
	// Migration schedules a thread's re-scheduling onto another processor
	// (MachineConfig.Migrations; requires ExtraProcs).
	Migration = machine.Migration
	// RunResult is a simulation outcome: execution, result, statistics.
	RunResult = machine.RunResult
	// MachineStats aggregates a run's measurements.
	MachineStats = machine.Stats
	// Metrics is a deterministic telemetry snapshot (RunResult.Metrics
	// when MachineConfig.Metrics is set; CampaignSummary.Metrics()).
	// Export with JSON or Prometheus.
	Metrics = metrics.Snapshot
	// Timeline is the run's event timeline: per-processor and
	// per-directory tracks, plus the fault injector's decisions on a
	// "faults" track under a fault plan (RunResult.Timeline when
	// MachineConfig.Timeline is set). Export with ChromeTrace (Perfetto /
	// chrome://tracing compatible) or WriteText (the table `wosim -trace`
	// prints).
	Timeline = metrics.Timeline

	// FaultPlan configures the deterministic interconnect fault injector
	// (MachineConfig.Faults): drop/duplicate/delay probabilities for
	// request-class coherence messages. Same (plan, seed) replays
	// identically.
	FaultPlan = faults.Plan
	// FaultStats counts injector activity over a run.
	FaultStats = faults.Stats
	// LivenessReport is the structured outcome of a watchdog death:
	// stalled processors, pending lines, reserve-bit holders, counters.
	LivenessReport = machine.LivenessReport
	// LivenessError wraps a LivenessReport as the error a wedged run
	// returns; unwrap with errors.As.
	LivenessError = machine.LivenessError

	// CampaignConfig parameterizes a differential model-checking campaign
	// (see internal/check).
	CampaignConfig = check.CampaignConfig
	// CampaignSummary is a campaign's deterministic outcome: coverage,
	// violations with shrunk reproducers, oracle statistics.
	CampaignSummary = check.Summary
	// CampaignViolation records one contract violation and its minimal
	// reproducer.
	CampaignViolation = check.ViolationReport

	// MemoryModel is a parsed declarative (.cat-style) axiomatic memory
	// model: named relations over candidate-execution events plus
	// acyclicity/irreflexivity/emptiness axioms (see internal/axiom).
	MemoryModel = axiom.Model
	// AxiomConfig bounds the axiomatic candidate-execution search.
	AxiomConfig = axiom.Config
	// AxiomVerdict is an axiomatic check outcome: admitted outcomes,
	// fired flags (e.g. drf0's "race"), and search statistics.
	AxiomVerdict = axiom.Verdict
	// AxiomStats is the axiomatic search telemetry.
	AxiomStats = axiom.Stats
	// AxiomDiffConfig bounds one axiomatic-vs-operational comparison.
	AxiomDiffConfig = check.AxiomDiffConfig
	// AxiomDiffResult reports one axiomatic-vs-operational comparison.
	AxiomDiffResult = check.AxiomDiffResult
)

// Operation kinds.
const (
	Read      = mem.Read
	Write     = mem.Write
	SyncRead  = mem.SyncRead
	SyncWrite = mem.SyncWrite
	SyncRMW   = mem.SyncRMW
)

// Registers.
const (
	R0 = program.R0
	R1 = program.R1
	R2 = program.R2
	R3 = program.R3
	R4 = program.R4
	R5 = program.R5
	R6 = program.R6
	R7 = program.R7
)

// Synchronization models.
const (
	// DRF0 is Definition 3: every synchronization operation orders.
	DRF0 = hb.SyncAll
	// DRF0RO is the Section 6 refinement: read-only synchronization
	// operations carry no release duty.
	DRF0RO = hb.SyncWriterOrdered
	// DRF0RA is the Section 7 exploration that became release
	// consistency: ordering flows only through release→acquire pairs
	// (writing sync op, then a later reading sync op on the same
	// location); two releases order nothing between their issuers.
	DRF0RA = hb.SyncPairedRA
)

// Consistency policies.
const (
	// SC is the Scheurich-Dubois sequentially consistent baseline.
	SC = policy.SC
	// Unconstrained is write-buffered hardware with no ordering
	// enforcement (the Figure 1 strawman).
	Unconstrained = policy.Unconstrained
	// WODef1 is weak ordering per Dubois/Scheurich/Briggs.
	WODef1 = policy.WODef1
	// WODef2 is the paper's Section 5.3 implementation of Definition 2.
	WODef2 = policy.WODef2
	// WODef2RO adds the Section 6 read-only-synchronization refinement.
	WODef2RO = policy.WODef2RO
)

// Interconnects.
const (
	// Bus is a shared bus (globally serialized transactions).
	Bus = machine.TopoBus
	// Network is a general interconnection network (independent routing,
	// variable latency).
	Network = machine.TopoNetwork
	// Mesh is a 2D mesh with deterministic XY routing and per-hop
	// latency — the scalable big-machine interconnect.
	Mesh = machine.TopoMesh
)

// Directory sharer representations (MachineConfig.DirMode).
const (
	// DirFullMap tracks exact sharers, one presence bit per processor —
	// the default and the correctness reference.
	DirFullMap = cache.DirFullMap
	// DirLimitedPtr tracks up to MachineConfig.DirPointers sharers;
	// overflow degrades the line to broadcast invalidation.
	DirLimitedPtr = cache.DirLimitedPtr
	// DirCoarseVector tracks one presence bit per group of
	// MachineConfig.DirCoarseness processors.
	DirCoarseVector = cache.DirCoarseVector
)

// ParseDirMode parses the CLI spelling of a directory mode: full,
// limited, or coarse (empty = full).
func ParseDirMode(s string) (cache.DirMode, error) { return cache.ParseDirMode(s) }

// NewProgram returns a builder for a program with the given name.
func NewProgram(name string) *ProgramBuilder { return program.NewBuilder(name) }

// ParseProgram parses the litmus text format (see internal/lang for the
// grammar).
func ParseProgram(src string) (*Program, error) { return lang.Parse(src) }

// FormatProgram renders a program in the litmus text format.
func FormatProgram(p *Program) string { return lang.Format(p) }

// CheckDRF0 decides whether p obeys DRF0 (Definition 3) by exhaustively
// enumerating its idealized executions with sane default budgets:
// spinning paths are bounded at 16 dynamic memory operations per thread
// and abandoned rather than failing the check (the Verdict reports how
// many). For deeper or custom budgets use internal/drf via a fork, or
// split the program.
func CheckDRF0(p *Program) (Verdict, error) { return CheckModel(p, DRF0) }

// CheckModel is CheckDRF0 under an explicit synchronization model. The
// enumeration is partial-order reduced (one representative per class of
// executions that merely commute independent operations), which finds
// the same set of distinct races; Verdict.Executions counts
// representatives.
func CheckModel(p *Program, mode SyncMode) (Verdict, error) {
	return drf.Check(p, mode, drf.CheckConfig{Enum: reducedEnum()})
}

// CheckModelAll is CheckModel but collects distinct race witnesses from
// every racy idealized execution instead of stopping at the first.
func CheckModelAll(p *Program, mode SyncMode) (Verdict, error) {
	return drf.Check(p, mode, drf.CheckConfig{Enum: reducedEnum(), AllRaces: true})
}

// DetectRaces runs the online vector-clock detector over one execution
// (linear time; the scalable alternative to CheckDRF0 for long traces).
func DetectRaces(e *Execution, mode SyncMode) []DynamicRace {
	return vclock.CheckExecution(e, mode)
}

// EnumerateSC visits every sequentially consistent execution of p at
// memory-operation granularity. The visitor's error stops enumeration
// (use StopEnumeration for a non-error stop).
func EnumerateSC(p *Program, visit func(*Execution) error) error {
	_, err := ideal.Enumerate(p, boundedEnum(), func(it *ideal.Interp) error {
		return visit(it.Execution())
	})
	return err
}

// StopEnumeration stops EnumerateSC early without reporting an error.
var StopEnumeration = ideal.ErrStop

// SCOutcomes returns every distinct sequentially consistent result of p,
// keyed by Result.Key, with one witness execution each. The enumeration
// is partial-order reduced: results are invariant across interleavings
// that only commute independent operations, so the outcome set is the
// same as full enumeration at a fraction of the paths.
func SCOutcomes(p *Program) (map[string]*Execution, error) {
	cfg := boundedEnum()
	cfg.Reduce = true
	return scmatch.Outcomes(p, cfg)
}

// RunSC executes p once on the idealized architecture under a fair
// pseudo-random interleaving derived from seed.
func RunSC(p *Program, seed int64) (*Execution, error) {
	it, err := ideal.RunSeed(p, ideal.Config{}, seed)
	if err != nil {
		return nil, err
	}
	return it.Execution(), nil
}

// AppearsSC reports whether result r of p appears sequentially
// consistent — whether some idealized execution produces the identical
// result (Definition 2's obligation, Lemma 1's condition). On success the
// witness execution is returned.
func AppearsSC(p *Program, r Result) (bool, *Execution, error) {
	m, err := scmatch.Matches(p, r, scmatch.Config{})
	return m.OK, m.Witness, err
}

// Simulate assembles the machine described by cfg and runs p to
// completion, with all randomized latencies derived from seed.
func Simulate(p *Program, cfg MachineConfig, seed int64) (*RunResult, error) {
	return machine.Run(p, cfg, seed)
}

// MachinePool reuses assembled machines across Simulate-style runs that
// share a structural configuration, resetting caches, directories,
// network queues, and processors in place instead of rebuilding the
// component graph per run. Results are byte-identical to fresh
// machines. A pool is not goroutine-safe — use one per worker, as the
// campaign does. Returned results alias pool-owned buffers
// (RunResult.Exec.Ops, OpCycles) that the next run on the same pooled
// machine overwrites; copy them to retain across runs.
type MachinePool = machine.Pool

// NewMachinePool returns an empty machine pool.
func NewMachinePool() *MachinePool { return machine.NewPool() }

// Check runs a differential model-checking campaign: generated programs
// are simulated across a policy × topology × caches matrix and every
// outcome is adjudicated against the SC oracles — runs under the SC
// policy must appear sequentially consistent, and DRF0 programs must
// appear sequentially consistent on every weakly ordered policy
// (Definition 2). Violations are shrunk to minimal reproducers. The
// summary is byte-identical for a fixed config, regardless of worker
// count.
func Check(cfg CampaignConfig) (*CampaignSummary, error) { return check.Run(cfg) }

// CampaignProgress is one live snapshot of a running campaign's
// progress: per-config run counts, oracle-stage rates, ETA, and journal
// position. It is the payload of the control plane's /progress endpoint
// and of CampaignConfig.ProgressJSON lines.
type CampaignProgress = check.Progress

// Serve is Check with the campaign control plane enabled on addr: an
// embedded HTTP server exposing /healthz, /metrics (Prometheus text),
// /progress (+ SSE stream), /violations (NDJSON + SSE tail), /summary
// (the current partial summary), and /debug/pprof for the duration of
// the campaign. The server only observes — the returned summary is
// byte-identical to Check's. Use ":0" with cfg.OnListen to bind an
// ephemeral port.
func Serve(cfg CampaignConfig, addr string) (*CampaignSummary, error) {
	cfg.Listen = addr
	return check.Run(cfg)
}

// ParsePolicy resolves a policy name ("SC", "Unconstrained", "WO-Def1",
// "WO-Def2", "WO-Def2+RO").
func ParsePolicy(name string) (Policy, error) { return policy.Parse(name) }

// Fault-plan presets for MachineConfig.Faults and CampaignConfig.Faults.
func FaultsNone() FaultPlan   { return faults.None() }
func FaultsMild() FaultPlan   { return faults.Mild() }
func FaultsSevere() FaultPlan { return faults.Severe() }

// ParseFaultPlan resolves a fault-plan preset name: "none", "mild", or
// "severe".
func ParseFaultPlan(name string) (FaultPlan, error) { return faults.Parse(name) }

// Policies lists every policy in presentation order.
func Policies() []Policy { return policy.All() }

// LoadModel returns a bundled axiomatic memory model by name ("sc",
// "tso", "ra", "drf0"); see ModelNames.
func LoadModel(name string) (*MemoryModel, error) { return axiom.Load(name) }

// ModelNames lists the bundled axiomatic models.
func ModelNames() []string { return axiom.ModelNames() }

// ParseModel parses .cat-style model source (see internal/axiom for the
// grammar). name labels errors and metrics.
func ParseModel(name, src string) (*MemoryModel, error) { return axiom.Parse(name, src) }

// AxiomOutcomes enumerates every program outcome the axiomatic model
// admits: candidate executions (events + po + rf + co) are constructed
// exhaustively under cfg's budgets and filtered by the model's axioms.
// The zero AxiomConfig uses sane defaults (8 memory ops per thread).
func AxiomOutcomes(p *Program, m *MemoryModel, cfg AxiomConfig) (map[string]Result, AxiomStats, error) {
	return axiom.Outcomes(p, m, cfg)
}

// AxiomCheck evaluates the model over every consistent candidate
// execution of p, including flag constraints — under the bundled "drf0"
// model, Verdict.Flags["race"] counts racy candidates, giving an
// axiomatic DRF0 classification to compare with CheckDRF0.
func AxiomCheck(p *Program, m *MemoryModel, cfg AxiomConfig) (*AxiomVerdict, error) {
	return axiom.Check(p, m, cfg)
}

// AxiomDiff cross-checks the axiomatic engine against the operational
// oracles on one program: axiomatic-SC outcomes vs exhaustive idealized
// interleaving, and the drf0 race flag vs CheckDRF0's classification.
func AxiomDiff(p *Program, cfg AxiomDiffConfig) (AxiomDiffResult, error) {
	return check.AxiomDiff(p, cfg)
}

func boundedEnum() ideal.EnumConfig {
	return ideal.EnumConfig{
		Interp:        ideal.Config{MaxMemOpsPerThread: 16},
		SkipTruncated: true,
		MaxPaths:      5_000_000,
	}
}

// reducedEnum is boundedEnum with partial-order reduction for the race
// checkers.
func reducedEnum() ideal.EnumConfig {
	cfg := boundedEnum()
	cfg.Reduce = true
	return cfg
}
