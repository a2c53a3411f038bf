package check

import (
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"runtime/debug"
	"sync"
	"time"

	"weakorder/internal/drf"
	"weakorder/internal/hb"
	"weakorder/internal/ideal"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/scmatch"
)

// campaign carries the shared state of one running campaign.
type campaign struct {
	cfg    CampaignConfig
	matrix []machine.Config

	// journal, when non-nil, receives every completed program's outcome;
	// done holds outcomes replayed from a resumed journal, keyed by
	// program index.
	journal *journal
	done    map[int]progOutcome

	// pub, when non-nil, receives live campaign state for the control
	// plane and progress lines (publish.go). Nil when neither is
	// configured; every hook is a no-op then.
	pub *Publisher

	// Progress lines are side output only: they render pub's snapshot,
	// and the Summary never reads it.
	progressMu sync.Mutex
	lastLine   time.Time
}

// noteProgress emits a progress line after a program checked in this
// process completes, at most once per ProgressEvery: pub's snapshot as
// JSON to ProgressJSON, or as a text line via Logf when only the
// interval is set. Once every program is done no line is emitted; the
// final "campaign done" line covers completion.
func (c *campaign) noteProgress() {
	toJSON := c.cfg.ProgressJSON != nil
	if !toJSON && (c.cfg.ProgressEvery <= 0 || c.cfg.Logf == nil) {
		return
	}
	c.progressMu.Lock()
	defer c.progressMu.Unlock()
	pr := c.pub.Progress()
	if pr.DonePrograms >= int64(pr.Programs) {
		return
	}
	every := c.cfg.ProgressEvery
	if every <= 0 {
		every = time.Second
	}
	now := time.Now()
	if now.Sub(c.lastLine) < every {
		return
	}
	c.lastLine = now
	if !toJSON {
		c.cfg.Logf("progress: %d/%d programs, %d sims, %d violations, %.1f prog/s",
			pr.DonePrograms, pr.Programs, pr.Sims, pr.Violations, pr.ProgramsPerSec)
		return
	}
	line, err := json.Marshal(pr)
	if err != nil {
		return // a snapshot is always marshalable; never block the campaign
	}
	c.cfg.ProgressJSON.Write(append(line, '\n')) //nolint:errcheck // progress is side output
}

// simRecord is one simulation's classification outcome. Fields are
// exported because progOutcome records are the campaign's journal
// payload (journal.go); the JSON encoding must round-trip exactly.
type simRecord struct {
	Policy string `json:"policy"`
	// Key is the observed result's key: the program-local memo's key and
	// the coverage table's distinct-outcome identity.
	Key string `json:"key"`
	// AppearsSC is the oracle verdict; meaningless when Skipped != "".
	AppearsSC bool `json:"appearsSC,omitempty"`
	// Skipped, when non-empty, names why the oracle decision stopped
	// undecided ("budget", "deadline" or "local-loop", see overrun); the
	// simulation ran but contributes no verdict.
	Skipped string `json:"skipped,omitempty"`
	// Oracle accounting, aggregated by summarize: L1 marks a query
	// absorbed by the program-local memo, Sat one decided by the
	// polynomial saturation fast path, and any other query ran the
	// result-directed search. SatFallback, when non-empty, is the fast
	// path's reason for handing the query to the search.
	L1          bool   `json:"l1,omitempty"`
	Sat         bool   `json:"sat,omitempty"`
	SatFallback string `json:"satFallback,omitempty"`
}

// progOutcome is everything one program contributes to the summary. It
// is self-contained on purpose: summarize derives the whole Summary —
// oracle statistics included — from these records alone, which is what
// makes a journaled outcome exactly substitutable for a recomputed one.
type progOutcome struct {
	Class      string            `json:"class"`
	Sims       []simRecord       `json:"sims,omitempty"`
	Violations []ViolationReport `json:"violations,omitempty"`
	Watchdogs  int               `json:"watchdogs,omitempty"`
	// Panics counts worker panics recovered while checking this program;
	// each also appears as a KindWorkerPanic violation.
	Panics int          `json:"panics,omitempty"`
	Skips  []SkipRecord `json:"skips,omitempty"`
}

// workerState is one worker goroutine's private state. The machine pool
// is replaced wholesale after a recovered panic: a panic mid-run can
// leave a pooled machine half-stepped, and reusing it would let one
// fault corrupt later checks.
type workerState struct {
	pool *machine.Pool
	// drf memoizes the shrink predicate's DRF0 classification of the
	// current program's candidates, keyed by normalized litmus text: a
	// program that violates on several configs or machine seeds is shrunk
	// along the same candidates each time. runProgram clears it.
	drf map[string]bool
}

func newWorkerState() *workerState {
	return &workerState{pool: machine.NewPool(), drf: make(map[string]bool)}
}

// runPool fans the program indices over a bounded worker pool. Each
// worker writes only its own slots of the results slice, so the
// collector's aggregation order — and therefore the Summary — is
// independent of scheduling. All randomness is derived from (Seed,
// indices), never from worker identity, which is what makes the campaign
// deterministic for any worker count. Indices already present in a
// resumed journal are not re-checked; their journaled outcomes fill the
// results slice directly, and reach the Publisher before any worker
// starts, so every progress line counts them.
func (c *campaign) runPool() ([]progOutcome, error) {
	outs := make([]progOutcome, c.cfg.Programs)
	errs := make([]error, c.cfg.Programs)
	for i := range outs {
		if done, ok := c.done[i]; ok {
			outs[i] = done
			c.pub.noteProgram(i, done, true)
		}
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < c.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns a machine pool: simulations reuse one
			// assembled machine per structural configuration instead of
			// rebuilding the component graph per run. Pools are worker-local
			// (machine.Pool is not goroutine-safe) and influence only
			// allocation behavior — results are byte-identical to fresh
			// machines, so the Summary stays worker-count-invariant.
			ws := newWorkerState()
			for idx := range jobs {
				out, err := c.runProgram(idx, ws)
				if err == nil && c.journal != nil {
					err = c.journal.append(idx, out)
				}
				outs[idx], errs[idx] = out, err
				if err == nil {
					c.pub.noteProgram(idx, out, false)
				}
				c.noteProgress()
			}
		}()
	}
	for i := 0; i < c.cfg.Programs; i++ {
		if _, ok := c.done[i]; !ok {
			jobs <- i
		}
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("check: program %d: %w", i, err)
		}
	}
	return outs, nil
}

// deadlineHook returns a fresh cooperative-cancellation hook enforcing
// cfg.CheckDeadline for one oracle decision, or nil when deadlines are
// disabled. Each decision gets its own budget; the hook is polled from
// the sat/ideal/scmatch step loops.
func (c *campaign) deadlineHook() func() bool {
	if c.cfg.CheckDeadline <= 0 {
		return nil
	}
	deadline := time.Now().Add(c.cfg.CheckDeadline)
	return func() bool { return time.Now().After(deadline) }
}

// runProgram generates program idx, classifies it, simulates it across
// the whole config matrix, and shrinks any violation it finds. A panic
// anywhere in the per-check work is recovered by checkOne; a panic
// outside it (generation, classification) is recovered here and
// reported as a program-level KindWorkerPanic.
func (c *campaign) runProgram(idx int, ws *workerState) (out progOutcome, err error) {
	specs := generators()
	spec := specs[idx%len(specs)]
	genSeed := deriveSeed(c.cfg.Seed, uint64(idx), 0x67656e) // "gen" stream
	clear(ws.drf)

	var prog *program.Program
	defer func() {
		if r := recover(); r == nil {
			return
		} else {
			// The worker survives: replace the possibly-corrupt pool,
			// report the panic, and let the campaign continue. No shrink
			// here — the panic predates a usable (config, seed) context.
			ws.pool = machine.NewPool()
			out.Panics++
			rep := ViolationReport{
				Kind:         KindWorkerPanic,
				Generator:    spec.name,
				GenSeed:      genSeed,
				ProgramIndex: idx,
				Outcome:      "panic",
				Stack:        panicStack(r, debug.Stack()),
			}
			if prog != nil {
				rep.Program = prog.Name
				rep.Litmus = formatProgram(prog)
				rep.Instructions = instructionCount(prog)
			}
			if out.Class == "" {
				out.Class = ClassRacy // conservative: no oracle applies
			}
			out.Violations = append(out.Violations, rep)
			if werr := c.writeCorpus(&rep); werr != nil && err == nil {
				err = werr
			}
			if c.cfg.Logf != nil {
				c.cfg.Logf("PANIC recovered: program %d (%s): %v", idx, spec.name, r)
			}
		}
	}()

	prog = spec.make(genSeed)

	class := spec.class
	if class == "" {
		var skip string
		class, skip = c.classify(prog)
		if skip != "" {
			out.Skips = append(out.Skips, SkipRecord{
				ProgramIndex: idx,
				Stage:        "classify",
				Reason:       skip,
			})
		}
	}
	out.Class = class

	// l1 memoizes appears-SC verdicts for this program's own runs, keyed
	// by result key: the matrix × seeds loop observes the same few
	// outcomes over and over.
	l1 := make(map[string]bool, 8)
	for cfgIdx, mcfg := range c.matrix {
		// Pad the machine to the campaign's processor floor. The padding
		// depends only on (Procs, program), so the Summary stays
		// deterministic and a violation's ConfigDesc replays exactly.
		if extra := c.cfg.Procs - prog.NumThreads(); extra > 0 {
			mcfg.ExtraProcs = extra
		}
		for s := 0; s < c.cfg.SeedsPerConfig; s++ {
			machineSeed := deriveSeed(c.cfg.Seed, uint64(idx), uint64(cfgIdx), uint64(s), 0x5eed5)
			panicked, err := c.checkOne(&out, ws, prog, spec, genSeed, idx, cfgIdx, mcfg, machineSeed, l1)
			if err != nil {
				return out, err
			}
			if panicked {
				// Quarantine the offending (program, config) pair: the
				// remaining seeds would almost certainly re-panic on the
				// same simulator path, and one poisoned pair must not
				// starve the rest of the matrix.
				break
			}
		}
	}
	return out, nil
}

// Stack traces embed heap addresses and goroutine IDs, which vary run
// to run and worker count to worker count; panicStack scrubs them so a
// recovered panic's report — and therefore the Summary — stays
// byte-deterministic.
var (
	stackAddrPat      = regexp.MustCompile(`0x[0-9a-f]+\??`)
	stackGoroutinePat = regexp.MustCompile(`goroutine \d+`)
)

func panicStack(r interface{}, stack []byte) string {
	s := fmt.Sprintf("panic: %v\n\n%s", r, stack)
	s = stackAddrPat.ReplaceAllString(s, "0x…")
	return stackGoroutinePat.ReplaceAllString(s, "goroutine N")
}

// checkOne runs one (program, config, machine seed) check: simulate,
// adjudicate against the oracle, shrink and report any violation. A
// panic anywhere inside is recovered, reported as a shrunk
// KindWorkerPanic violation, and signaled to the caller so it can
// quarantine the (program, config) pair. The worker's pool is replaced
// after a panic — a half-stepped pooled machine must not be reused.
func (c *campaign) checkOne(out *progOutcome, ws *workerState, prog *program.Program,
	spec genSpec, genSeed int64, idx, cfgIdx int,
	mcfg machine.Config, machineSeed int64, l1 map[string]bool) (panicked bool, err error) {

	c.pub.noteSim(cfgIdx)
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		panicked = true
		ws.pool = machine.NewPool()
		out.Panics++
		stack := panicStack(r, debug.Stack())
		rep, rerr := c.report(KindWorkerPanic, spec, genSeed, idx, prog, mcfg, machineSeed, "panic", 0, stack, ws)
		if rerr != nil && err == nil {
			err = rerr
		}
		out.Violations = append(out.Violations, rep)
		if c.cfg.Logf != nil {
			c.cfg.Logf("PANIC recovered: %s on %s (machine seed %d), quarantined: %v",
				prog.Name, mcfg.Name(), machineSeed, r)
		}
	}()

	res, err := ws.pool.RunPooled(prog, mcfg, machineSeed)
	if err != nil {
		var le *machine.LivenessError
		if !errors.As(err, &le) {
			return false, fmt.Errorf("%s on %s (seed %d): %w", prog.Name, mcfg.Name(), machineSeed, err)
		}
		// A wedged run is itself a checkable violation: the protocol
		// failed to recover. Shrink it and move on — one dead run must
		// not abort the campaign.
		out.Watchdogs++
		rep, rerr := c.report(KindLiveness, spec, genSeed, idx, prog, mcfg, machineSeed,
			"wedged", 0, le.Report.String(), ws)
		if rerr != nil {
			return false, rerr
		}
		out.Violations = append(out.Violations, rep)
		if c.cfg.Logf != nil {
			c.cfg.Logf("VIOLATION %s: %s on %s (machine seed %d), shrunk to %d instructions",
				KindLiveness, prog.Name, mcfg.Name(), machineSeed, rep.Instructions)
		}
		return false, nil
	}
	if c.cfg.Fault != nil {
		c.cfg.Fault(mcfg, prog, res)
	}
	// A repeated observation replays the program's memoized verdict;
	// anything else goes to the oracle.
	rec := simRecord{Policy: mcfg.Policy.String(), Key: res.Result.Key()}
	rec.AppearsSC, rec.L1 = l1[rec.Key]
	if !rec.L1 {
		m, derr := c.decide(prog, res.Result)
		rec.Sat, rec.SatFallback = m.Sat, m.SatFallback
		if skip := overrun(derr); skip != "" {
			// The simulation ran, the verdict did not: an undecided query
			// is a skip, never a pass. Not memoized — a later identical
			// observation is decided afresh — and not a violation either
			// way.
			out.Sims = append(out.Sims, simRecord{Policy: rec.Policy, Key: rec.Key, Skipped: skip})
			out.Skips = append(out.Skips, SkipRecord{
				ProgramIndex: idx,
				Config:       describeConfig(mcfg),
				MachineSeed:  machineSeed,
				Stage:        "oracle",
				Reason:       skip,
			})
			if c.cfg.Logf != nil {
				c.cfg.Logf("SKIP %s: %s on %s (machine seed %d)", skip, prog.Name, mcfg.Name(), machineSeed)
			}
			return false, nil
		}
		if derr != nil {
			return false, fmt.Errorf("%s on %s: oracle: %w", prog.Name, mcfg.Name(), derr)
		}
		rec.AppearsSC = m.OK
		l1[rec.Key] = rec.AppearsSC
	}
	out.Sims = append(out.Sims, rec)
	kind := violationKind(out.Class, mcfg.Policy, rec.AppearsSC)
	if kind == "" {
		return false, nil
	}
	rep, rerr := c.report(kind, spec, genSeed, idx, prog, mcfg, machineSeed, rec.Key, res.Stats.Cycles, "", ws)
	if rerr != nil {
		return false, rerr
	}
	out.Violations = append(out.Violations, rep)
	if c.cfg.Logf != nil {
		c.cfg.Logf("VIOLATION %s: %s on %s (machine seed %d), shrunk to %d instructions",
			kind, prog.Name, mcfg.Name(), machineSeed, rep.Instructions)
	}
	return false, nil
}

// decide answers one appears-SC query for an observed result of p:
// scmatch.Decide, or under searchOnly the search alone — the reference
// path the golden search-only campaign pins. The interpreter is
// unbounded: the observed result may contain any number of dynamic
// memory operations per thread (spin retries), and pruning against the
// observation keeps the search tractable regardless. One deadline hook
// covers the whole decision.
func (c *campaign) decide(p *program.Program, res mem.Result) (scmatch.Match, error) {
	cfg := scmatch.Config{MaxStates: oracleMatchMaxStates, Cancel: c.deadlineHook()}
	if searchOnly {
		return scmatch.Matches(p, res, cfg)
	}
	return scmatch.Decide(p, res, cfg)
}

// violationKind maps a classification to the oracle it breaks ("" when
// the outcome is coverage only).
func violationKind(class string, pol policy.Kind, appearsSC bool) string {
	if appearsSC {
		return ""
	}
	switch {
	case pol == policy.SC:
		return KindSCPolicy
	case class == ClassDRF && isWeaklyOrdered(pol):
		return KindDefinition2
	default:
		return ""
	}
}

func isWeaklyOrdered(pol policy.Kind) bool {
	switch pol {
	case policy.WODef1, policy.WODef2, policy.WODef2RO:
		return true
	}
	return false
}

// classify decides whether a program obeys DRF0 by bounded exhaustive
// check. A check that overruns classifies as racy — coverage only, no
// violation oracle — and skip names the overrun, which the caller
// records. Any other error is racy with no skip.
func (c *campaign) classify(p *program.Program) (class, skip string) {
	cfg := boundedDRFConfig()
	cfg.Enum.Cancel = c.deadlineHook()
	v, err := drf.Check(p, hb.SyncAll, cfg)
	if err != nil || !v.DRF {
		return ClassRacy, overrun(err)
	}
	return ClassDRF, ""
}

// overrun names why a check stopped undecided: "budget" when its
// search exhausted its state or path budget, "deadline" when
// CampaignConfig.CheckDeadline canceled it, "local-loop" when a thread
// ran program.MaxLocalSteps register-only instructions in a row, "" for
// any other outcome. Budget and local-loop overruns are deterministic;
// a deadline one depends on host speed.
func overrun(err error) string {
	switch {
	case errors.Is(err, scmatch.ErrBudget), errors.Is(err, ideal.ErrBudget):
		return "budget"
	case errors.Is(err, scmatch.ErrCanceled), errors.Is(err, ideal.ErrCanceled):
		return "deadline"
	case errors.Is(err, program.ErrLocalLoop):
		return "local-loop"
	}
	return ""
}

// report shrinks a violating program and assembles its ViolationReport,
// writing the reproducer into the corpus directory when configured.
// outcome is the violation's recorded outcome: the observed result's
// key, "wedged" or "panic". cycles is the violating run's length, which
// bounds the Definition 2 and SC-policy shrink probes. detail is the
// rendered LivenessReport for KindLiveness and the panic stack for
// KindWorkerPanic.
func (c *campaign) report(kind string, spec genSpec, genSeed int64, idx int,
	prog *program.Program, mcfg machine.Config, machineSeed int64,
	outcome string, cycles uint64, detail string, ws *workerState) (ViolationReport, error) {

	pred := c.violates(kind, mcfg, machineSeed, cycles, ws)
	shrunk, steps := Shrink(prog, pred, maxShrinkTries)
	rep := ViolationReport{
		Kind:         kind,
		Program:      shrunk.Name,
		Generator:    spec.name,
		GenSeed:      genSeed,
		ProgramIndex: idx,
		Config:       describeConfig(mcfg),
		MachineSeed:  machineSeed,
		Outcome:      outcome,
		Instructions: instructionCount(shrunk),
		ShrinkSteps:  steps,
		Litmus:       formatProgram(shrunk),
	}
	switch kind {
	case KindLiveness:
		rep.Liveness = detail
	case KindWorkerPanic:
		rep.Stack = detail
	}
	return rep, c.writeCorpus(&rep)
}

// violates builds the shrinker predicate: does the candidate program
// still break kind's contract under the same config and machine seed?
// Definition 2 and SC-policy probes stop at shrinkBudget(cycles) of the
// violating run's cycles; a wedged liveness probe burns its whole
// budget, so it gets the tight one. Definition 2 candidates must
// additionally stay DRF0 — otherwise shrinking could land on a
// legitimately-racy program whose non-SC outcome is no bug, making the
// corpus entry spurious.
func (c *campaign) violates(kind string, mcfg machine.Config, machineSeed int64, cycles uint64, ws *workerState) func(*program.Program) bool {
	switch kind {
	case KindLiveness:
		mcfg.MaxCycles = livenessShrinkMaxCycles
	case KindWorkerPanic:
		mcfg.MaxCycles = shrinkMaxCycles
	default:
		mcfg.MaxCycles = shrinkBudget(cycles)
	}
	return func(cand *program.Program) bool {
		if kind == KindDefinition2 && !c.candidateDRF(cand, ws) {
			return false
		}
		broken, _, err := c.probe(kind, cand, mcfg, machineSeed, ws)
		return err == nil && broken
	}
}

// probe runs cand once on ws's machine pool and judges the run by
// kind's contract, the one judgment both the shrinker and Replay make:
// SC-policy and Definition 2 runs must appear SC, a run must not wedge
// (KindLiveness), and checking it must not panic (KindWorkerPanic). It
// reports whether the run breaks the contract, with the unformatted
// evidence — the observed result, the *machine.LivenessReport or the
// panic value — and an error for a run it cannot judge: one that fails
// otherwise, or whose appears-SC decision does not finish. The
// campaign's fault hook runs after every completed run but a liveness
// probe's, on mcfg. A worker-panic probe covers the run and the hook, so
// a panic rooted elsewhere (oracle internals) shrinks zero steps; a
// recovered panic replaces ws.pool, since a half-stepped pooled machine
// must not be reused.
func (c *campaign) probe(kind string, cand *program.Program, mcfg machine.Config, seed int64, ws *workerState) (broken bool, evidence any, err error) {
	if kind == KindWorkerPanic {
		defer func() {
			if r := recover(); r != nil {
				ws.pool = machine.NewPool()
				broken, evidence, err = true, r, nil
			}
		}()
	}
	res, err := ws.pool.RunPooled(cand, mcfg, seed)
	var le *machine.LivenessError
	switch {
	case kind == KindLiveness:
		if errors.As(err, &le) {
			return true, le.Report, nil
		}
		return false, nil, err
	case kind == KindWorkerPanic && errors.As(err, &le):
		return false, nil, nil // a wedge is no panic
	case err != nil:
		return false, nil, err
	}
	if c.cfg.Fault != nil {
		c.cfg.Fault(mcfg, cand, res)
	}
	if kind == KindWorkerPanic {
		return false, nil, nil
	}
	m, err := c.decide(cand, res.Result)
	if err != nil {
		return false, nil, err
	}
	return !m.OK, res.Result, nil
}

// candidateDRF answers whether a shrink candidate obeys DRF0, from
// ws.drf when the program's shrinking already classified it. A budget
// overrun is deterministic, so its racy answer is stored; a
// deadline-skipped classification is not: a later probe of the same
// candidate gets a fresh deadline.
func (c *campaign) candidateDRF(cand *program.Program, ws *workerState) bool {
	key := formatProgram(cand)
	if drf, ok := ws.drf[key]; ok {
		return drf
	}
	class, skip := c.classify(cand)
	drf := class == ClassDRF
	if skip != "deadline" {
		ws.drf[key] = drf
	}
	return drf
}

func instructionCount(p *program.Program) int {
	n := 0
	for i := range p.Threads {
		n += len(p.Threads[i].Instrs)
	}
	return n
}

// CorruptReadFault is the standard test fault: on the given policy it
// bumps the first (lowest-OpID) read observation by 1000, producing a
// result no idealized execution can match. It deliberately breaks the
// policy's contract so the detection → shrink → corpus pipeline can be
// exercised end to end.
func CorruptReadFault(pol policy.Kind) FaultHook {
	return func(cfg machine.Config, p *program.Program, res *machine.RunResult) {
		if cfg.Policy == pol && len(res.Result.Reads) > 0 {
			res.Result.Reads[0].Value += 1000
		}
	}
}

// PanicFault is the standard worker-isolation test fault: it panics on
// every run of the given policy, simulating a checker bug so the
// recover → report → quarantine pipeline can be exercised end to end.
func PanicFault(pol policy.Kind) FaultHook {
	return func(cfg machine.Config, p *program.Program, res *machine.RunResult) {
		if cfg.Policy == pol {
			panic(fmt.Sprintf("injected worker panic on %s", cfg.Policy))
		}
	}
}
