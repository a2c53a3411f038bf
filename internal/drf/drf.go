// Package drf implements the paper's Definition 3: a program obeys the
// synchronization model Data-Race-Free-0 iff (1) all synchronization
// operations are hardware recognizable and access exactly one memory
// location, and (2) for every execution on the idealized architecture all
// conflicting accesses are ordered by that execution's happens-before
// relation.
//
// Condition (1) holds by construction for programs in this repository's
// IR: OpSyncLoad/OpSyncStore/OpTAS/OpSwap are the recognizable
// synchronization opcodes and each names exactly one location. Condition
// (2) is checked by exhaustively enumerating idealized executions
// (package ideal) and deciding each with one vector-clock pass (package
// vclock). Only an execution the pass reports is explained: augmented
// with the initial/final boundary operations and searched for
// conflicting unordered pairs (package hb), which yields the races and
// the witness. The two agree exactly: augmentation adds only boundary
// synchronization operations that are first or last in program order,
// so it never orders two real operations, and the detector's clock
// comparison is happens-before reachability between real operations.
//
// The package also supports the Section 6 refinement via
// hb.SyncWriterOrdered, under which read-only synchronization operations
// do not order the issuing processor's prior accesses for other
// processors.
package drf

import (
	"fmt"

	"weakorder/internal/hb"
	"weakorder/internal/ideal"
	"weakorder/internal/mem"
	"weakorder/internal/program"
	"weakorder/internal/vclock"
)

// CheckConfig bounds the exhaustive check.
type CheckConfig struct {
	// Enum bounds enumeration of idealized executions.
	Enum ideal.EnumConfig
	// AllRaces collects races from every racy execution instead of
	// stopping at the first racy execution found.
	AllRaces bool
}

// Verdict is the outcome of a DRF0 check.
type Verdict struct {
	// DRF reports whether every enumerated execution was race free.
	DRF bool
	// Races holds witness races: those of the first racy execution, or of
	// all racy executions when AllRaces was set (deduplicated by operation
	// identity).
	Races []hb.Race
	// Witness is the first racy execution (augmented form), nil if DRF.
	Witness *mem.Execution
	// Executions is the number of idealized executions examined.
	Executions int
	// Truncated is the number of abandoned (budget-exceeded) paths.
	Truncated int
}

// String summarizes the verdict.
func (v Verdict) String() string {
	if v.DRF {
		return fmt.Sprintf("DRF0: yes (%d executions)", v.Executions)
	}
	return fmt.Sprintf("DRF0: NO (%d races across %d executions)", len(v.Races), v.Executions)
}

// Check decides whether p obeys DRF0 (or the refined model selected by
// mode) by exhaustive enumeration. Under cfg.Enum.Reduce it keeps
// same-address synchronization pairs ordered (PreserveSyncOrder): the
// happens-before builders order such pairs by completion order even
// when both only read, so they must not commute. Each execution is
// decided by a vector-clock pass; the happens-before graph is built only
// for an execution the pass finds racy.
func Check(p *program.Program, mode hb.SyncMode, cfg CheckConfig) (Verdict, error) {
	cfg.Enum.PreserveSyncOrder = true
	var v Verdict
	v.DRF = true
	seen := make(map[raceKey]bool)
	det := vclock.NewDetector(p.NumThreads(), mode)

	stats, err := ideal.Enumerate(p, cfg.Enum, func(it *ideal.Interp) error {
		det.Reset()
		for _, op := range it.Trace() {
			det.Observe(op)
		}
		if !det.HasRace() {
			return nil
		}
		g := hb.BuildAugmented(it.Execution(), p.Init, mode)
		races := hb.RealRaces(g.Races())
		if len(races) == 0 {
			return nil
		}
		if v.DRF {
			v.DRF = false
			v.Witness = g.Execution()
		}
		for _, r := range races {
			k := keyOf(r)
			if !seen[k] {
				seen[k] = true
				v.Races = append(v.Races, r)
			}
		}
		if !cfg.AllRaces {
			return ideal.ErrStop
		}
		return nil
	})
	v.Executions = stats.Executions
	v.Truncated = stats.Truncated
	if err != nil {
		return v, err
	}
	return v, nil
}

// CheckExecution checks a single idealized execution (e.g. the hand-coded
// Figure 2 executions) against Definition 3's condition (2): it augments,
// builds happens-before, and returns the conflicting unordered pairs among
// real operations. An empty slice means the execution obeys DRF0.
func CheckExecution(e *mem.Execution, init map[mem.Addr]mem.Value, mode hb.SyncMode) []hb.Race {
	g := hb.BuildAugmented(e, init, mode)
	return hb.RealRaces(g.Races())
}

type raceKey struct{ a, b mem.OpID }

func keyOf(r hb.Race) raceKey {
	a, b := r.A.ID(), r.B.ID()
	if b.Less(a) {
		a, b = b, a
	}
	return raceKey{a: a, b: b}
}
