package ideal

import (
	"errors"
	"fmt"
	"math/rand"

	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// EnumConfig controls exhaustive interleaving enumeration.
type EnumConfig struct {
	// Interp bounds each interpreted path.
	Interp Config
	// MaxPaths aborts after exploring this many paths, complete or not
	// (0 = unlimited). Exceeding it yields ErrBudget.
	MaxPaths int
	// SkipTruncated controls what happens when a path exceeds the
	// per-thread memory-operation budget: if true the path is silently
	// abandoned, otherwise enumeration fails with ErrTruncated.
	SkipTruncated bool
	// Reduce enables conflict-aware partial-order reduction: sleep sets
	// over the enabled-thread frontier plus state-key memoization, so
	// enumeration visits at least one representative interleaving per
	// Mazurkiewicz trace (equivalence class under commuting adjacent
	// independent operations) instead of every interleaving. Sound for
	// visitors that depend only on trace-equivalence invariants — read
	// observations (keyed by OpID) and the final memory state, i.e.
	// mem.Result — because two operations commute only when they do not
	// conflict in the paper's Definition 3 sense. Executions then counts
	// representatives, not interleavings. Without it, or for programs
	// with more than 64 threads, the same walk visits every interleaving.
	Reduce bool
	// Cancel, when non-nil, is polled periodically (every cancelPollMask+1
	// steps) during enumeration; returning true aborts the search with
	// ErrCanceled. Cancellation is cooperative — no goroutines are
	// involved, so an abandoned enumeration leaks nothing — and is how
	// callers impose wall-clock deadlines on otherwise CPU-bound searches.
	Cancel func() bool
	// PreserveSyncOrder strengthens the reduction's dependence relation:
	// two synchronization operations on the same address never commute,
	// even when both only read. The happens-before builders (package hb)
	// order same-address synchronization pairs by completion order
	// regardless of conflict, so visitors that inspect per-execution
	// sync order (race detection) need this; pure outcome enumeration
	// does not. Only meaningful with Reduce.
	PreserveSyncOrder bool
	// Observed, when non-nil, restricts the walk to executions whose
	// every read returns its observed value: a step whose read is
	// missing from Observed, or returns another address or value, is
	// dropped, and so is every interleaving through it. Dropped steps
	// are not counted in Steps, so MaxPaths bounds the steps taken.
	// Under Reduce the dropped thread sleeps for the remaining siblings:
	// its pending read returns the same value there until a conflicting
	// write wakes it. This is Lemma 1's question — does some idealized
	// execution produce the observed reads? — asked of the enumerator;
	// the visitor compares the final memory.
	Observed map[mem.OpID]mem.ReadObservation
}

// maxTraceHint caps Enumerate's up-front trace capacity; a longer path
// grows the trace where it overflows, once per node at that depth.
const maxTraceHint = 256

// ErrBudget reports that enumeration exceeded its path budget.
var ErrBudget = errors.New("ideal: enumeration budget exceeded")

// ErrCanceled reports that EnumConfig.Cancel asked the search to stop.
var ErrCanceled = errors.New("ideal: enumeration canceled")

// cancelPollMask throttles EnumConfig.Cancel polling to every 256 steps:
// the hook typically reads a clock, which is too expensive per step and
// plenty accurate at this granularity (a step is well under a microsecond).
const cancelPollMask = 255

// canceled polls cfg.Cancel at the throttled rate.
func (cfg *EnumConfig) canceled(steps int) bool {
	return cfg.Cancel != nil && steps&cancelPollMask == 0 && cfg.Cancel()
}

// contradicts reports whether op's read component disagrees with
// cfg.Observed.
func (cfg *EnumConfig) contradicts(op mem.Op) bool {
	if cfg.Observed == nil || !op.HasReadComponent() {
		return false
	}
	obs, ok := cfg.Observed[op.ID()]
	return !ok || obs.Addr != op.Addr || obs.Value != op.Got
}

// ErrStop is returned by a visitor to stop enumeration early without error.
var ErrStop = errors.New("ideal: stop enumeration")

// EnumStats summarizes an enumeration.
type EnumStats struct {
	// Executions is the number of complete executions visited.
	Executions int
	// Truncated is the number of abandoned (budget-exceeded) paths.
	Truncated int
	// Steps is the total number of Step calls performed, less those
	// dropped by EnumConfig.Observed.
	Steps int
	// SleepPruned counts branches skipped by the sleep-set reduction
	// (zero unless EnumConfig.Reduce).
	SleepPruned int
	// MemoHits counts states skipped because an equal state had already
	// been explored under a covering sleep set (zero unless
	// EnumConfig.Reduce).
	MemoHits int
}

// Visitor receives each complete idealized execution. Returning ErrStop
// halts enumeration successfully; any other non-nil error aborts it.
type Visitor func(*Interp) error

// Enumerate explores every interleaving of p at memory-operation
// granularity, invoking visit once per complete execution. With
// cfg.Reduce it instead visits at least one representative per
// conflict-equivalence class of complete executions (see
// EnumConfig.Reduce); with cfg.Observed it keeps only the executions
// whose reads match the observation. The Interp passed to visit is
// owned by the enumerator and must not be retained; call Execution on
// it to snapshot.
func Enumerate(p *program.Program, cfg EnumConfig, visit Visitor) (EnumStats, error) {
	var stats EnumStats
	root := New(p, cfg.Interp)
	// Every path extends the root's trace in place (copyFrom): size it
	// for the longest path, plus one slot for the step that finds a
	// thread's budget spent. That step appends nothing, but a trace
	// full before it would make copyFrom grow the trace for it.
	root.trace = make([]mem.Op, 0, min(pathBound(p, cfg.Interp.maxMemOps())+1, maxTraceHint))
	r := &reducer{cfg: cfg, stats: &stats, visit: visit}
	var reads [][]byte
	if cfg.Reduce && p.NumThreads() <= maxReduceThreads {
		r.memo = getMemo()
		defer putMemo(r.memo)
		// The read logs are extended in place like the trace (readLogs);
		// a read's varint takes one or two bytes for small values. Under
		// Observed the key leaves them out.
		reads = make([][]byte, p.NumThreads())
		for t := range reads {
			if cfg.Observed == nil {
				reads[t] = make([]byte, 0, 2*min(cfg.Interp.maxMemOps(), maxTraceHint))
			}
		}
	}
	err := r.explore(root, 0, reads)
	if errors.Is(err, ErrStop) {
		return stats, nil
	}
	return stats, err
}

// pathBound bounds the memory operations one path of p executes: a
// thread without a backward branch runs each of its memory instructions
// at most once, and no thread runs more than maxMemOps.
func pathBound(p *program.Program, maxMemOps int) int {
	n := 0
	for _, t := range p.Threads {
		ops, loops := 0, false
		for pc, in := range t.Instrs {
			if in.Op.IsMemory() {
				ops++
			}
			loops = loops || in.Op.IsBranch() && in.Target <= pc
		}
		if loops || ops > maxMemOps {
			ops = maxMemOps
		}
		n += ops
	}
	return n
}

// RunSchedule interprets p under an explicit schedule: schedule[i] names
// the thread taking step i. When the schedule is exhausted (or names a
// halted thread) remaining threads run round-robin to completion.
func RunSchedule(p *program.Program, cfg Config, schedule []int) (*Interp, error) {
	it := New(p, cfg)
	for _, tid := range schedule {
		if it.Done() {
			break
		}
		if tid < 0 || tid >= len(it.threads) || it.threads[tid].halted {
			continue
		}
		if _, err := it.Step(tid); err != nil {
			return nil, err
		}
	}
	if err := drain(it); err != nil {
		return nil, err
	}
	return it, nil
}

// RunSeed interprets p under a pseudo-random fair interleaving derived from
// seed. Fairness (every runnable thread is eventually chosen) ensures that
// spin loops waiting on other threads terminate.
func RunSeed(p *program.Program, cfg Config, seed int64) (*Interp, error) {
	it := New(p, cfg)
	rng := rand.New(rand.NewSource(seed))
	for !it.Done() {
		run := it.Runnable()
		tid := run[rng.Intn(len(run))]
		if _, err := it.Step(tid); err != nil {
			return nil, fmt.Errorf("ideal: seed %d: %w", seed, err)
		}
	}
	return it, nil
}

// drain runs all remaining threads round-robin until completion.
func drain(it *Interp) error {
	for !it.Done() {
		for _, tid := range it.Runnable() {
			if _, err := it.Step(tid); err != nil {
				return err
			}
		}
	}
	return nil
}
