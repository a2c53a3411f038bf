// Package scmatch decides whether an observed hardware result "appears
// sequentially consistent": whether some execution of the program on the
// idealized architecture (atomic memory operations, program order)
// produces the identical result — the same value for every dynamic read
// and the same final memory state. This is the executable form of the
// right-hand side of Definition 2 and of the condition in Lemma 1.
//
// The search interleaves the program at memory-operation granularity,
// pruning any branch whose next read returns a value different from the
// observed one, and memoizes failed interpreter states: two paths that
// reach the same full machine state have the same possible futures, so a
// state that once failed to extend to a matching completion always fails.
// A sleep-set partial-order reduction (see Config.NoReduce) additionally
// skips interleavings that merely commute non-conflicting operations of
// an already-searched branch — such interleavings produce the identical
// result, so they cannot change the verdict.
//
// Decide is the verdict-only entry point every checker uses: the
// polynomial saturation procedure (internal/sat) first, the search only
// for what it cannot decide. Matches is the search alone, for callers
// that need a witness execution.
package scmatch

import (
	"errors"
	"fmt"
	"math/bits"

	"weakorder/internal/ideal"
	"weakorder/internal/mem"
	"weakorder/internal/program"
	"weakorder/internal/sat"
)

// Config bounds the search.
type Config struct {
	// Interp bounds each interpreted path.
	Interp ideal.Config
	// MaxStates aborts the search after visiting this many states
	// (0 = DefaultMaxStates).
	MaxStates int
	// Cancel, when non-nil, is polled periodically during the search;
	// returning true aborts with ErrCanceled. Cancellation is
	// cooperative (no goroutines), so an abandoned search leaks nothing.
	Cancel func() bool
	// NoReduce disables the sleep-set partial-order reduction and
	// searches every interleaving naively. The reduction never changes
	// the verdict (a result matches some interleaving iff it matches
	// some representative of a conflict-equivalence class, since all
	// members produce the same result); the flag exists for
	// differential testing. The witness execution may differ between
	// the two modes.
	NoReduce bool
}

// DefaultMaxStates bounds the memoized search.
const DefaultMaxStates = 2_000_000

func (c Config) maxStates() int {
	if c.MaxStates > 0 {
		return c.MaxStates
	}
	return DefaultMaxStates
}

// ErrBudget reports that the search exceeded MaxStates.
var ErrBudget = errors.New("scmatch: state budget exceeded")

// ErrCanceled reports that Config.Cancel asked the decision to stop.
var ErrCanceled = errors.New("scmatch: decision canceled")

// cancelPollMask throttles Config.Cancel polling to every 256 states;
// the hook typically reads a clock, which is too expensive per state.
const cancelPollMask = 255

// Match is the outcome of an appears-SC query.
type Match struct {
	// OK reports whether some sequentially consistent execution produces
	// the observed result.
	OK bool
	// Witness is one such execution when OK and the search decided;
	// Decide's saturation verdicts carry none.
	Witness *mem.Execution
	// States is the number of interpreter states visited.
	States int
	// Sat reports that Decide's saturation stage decided, so no search
	// ran. SatFallback otherwise names why saturation handed the query
	// to the search (sat.Decision.Reason); empty from Matches.
	Sat         bool
	SatFallback string
}

// Decide reports whether result r of program p appears sequentially
// consistent. The saturation procedure answers first: its acceptances
// carry a verified witness order and its rejections a contradiction
// among necessary happens-before edges, so it is never conservative.
// What it hands on goes to Matches. cfg.Cancel covers both stages: a
// cancel in either returns ErrCanceled; an exhausted search returns
// ErrBudget.
func Decide(p *program.Program, r mem.Result, cfg Config) (Match, error) {
	d := sat.Decide(p, r, sat.Config{Cancel: cfg.Cancel})
	switch {
	case d.Verdict != sat.Fallback:
		return Match{OK: d.Verdict == sat.Accepted, Sat: true}, nil
	case d.Reason == sat.ReasonCanceled:
		return Match{SatFallback: d.Reason}, ErrCanceled
	}
	m, err := Matches(p, r, cfg)
	m.SatFallback = d.Reason
	return m, err
}

// Matches reports whether result r of program p appears sequentially
// consistent by the result-directed search alone; a match carries its
// witness execution.
func Matches(p *program.Program, r mem.Result, cfg Config) (Match, error) {
	s := &searcher{
		result: r,
		cfg:    cfg,
		memo:   make(map[string]bool),
		reduce: !cfg.NoReduce && p.NumThreads() <= 64,
	}
	root := ideal.New(p, cfg.Interp)
	ok, err := s.search(root, 0, 0)
	return Match{OK: ok, Witness: s.witness, States: s.states}, err
}

type searcher struct {
	result  mem.Result
	cfg     Config
	memo    map[string]bool // state key -> known failure (only failures stored)
	reduce  bool
	states  int
	witness *mem.Execution
	// ar recycles per-step interpreter clones and runnable scratch for
	// the duration of one query.
	ar ideal.Arena
}

// search explores completions of it that match the remaining observations;
// matched counts the read observations consumed so far.
//
// sleep is the sleep-set partial-order reduction's thread mask: a set
// bit marks a thread whose first-step continuations are covered by a
// branch already explored (and failed) higher in the tree. Skipping
// them is sound because whether a completion matches r depends only on
// per-read values (keyed by OpID) and the final memory — invariants of
// the conflict-equivalence class, so a covered continuation fails iff
// its explored representative did. Threads whose branch was pruned
// (contradicted observation, exceeded budget) join the sleep set too:
// the contradicting read value and the exhausted budget are the same
// in every covered continuation. A sleeping thread wakes when a
// conflicting operation executes (mem.Conflict — Definition 3).
func (s *searcher) search(it *ideal.Interp, matched int, sleep uint64) (bool, error) {
	s.states++
	if s.states > s.cfg.maxStates() {
		return false, ErrBudget
	}
	if s.cfg.Cancel != nil && s.states&cancelPollMask == 1 && s.cfg.Cancel() {
		return false, ErrCanceled
	}
	if it.Done() {
		if matched != len(s.result.Reads) {
			return false, nil
		}
		exec := it.Execution()
		if !finalEqual(exec.Final, s.result.Final) {
			return false, nil
		}
		s.witness = exec
		return true, nil
	}
	key := it.StateKey()
	if s.memo[key] {
		return false, nil
	}
	run := it.RunnableInto(s.ar.Ints())
	for _, tid := range run {
		bit := uint64(1) << uint(tid)
		if s.reduce && sleep&bit != 0 {
			continue
		}
		child := s.ar.Clone(it)
		op, ok, err := child.Step(tid)
		if errors.Is(err, ideal.ErrTruncated) {
			s.ar.Release(child)
			sleep |= bit
			continue
		}
		if err != nil {
			s.ar.Release(child)
			return false, err
		}
		m := matched
		if ok && op.HasReadComponent() {
			obs, present := s.result.Reads[op.ID()]
			if !present || obs.Value != op.Got || obs.Addr != op.Addr {
				s.ar.Release(child)
				sleep |= bit
				continue // this interleaving contradicts the observation
			}
			m++
		}
		childSleep := sleep
		if s.reduce && ok && childSleep != 0 {
			childSleep = filterSleep(it, childSleep, op)
		}
		found, err := s.search(child, m, childSleep)
		s.ar.Release(child)
		if err != nil {
			return false, err
		}
		if found {
			return true, nil
		}
		sleep |= bit
	}
	s.ar.ReleaseInts(run)
	s.memo[key] = true
	return false, nil
}

// filterSleep wakes every sleeping thread whose pending operation
// conflicts with the operation just executed.
func filterSleep(it *ideal.Interp, sleep uint64, op mem.Op) uint64 {
	out := sleep
	for rest := sleep; rest != 0; rest &= rest - 1 {
		u := bits.TrailingZeros64(rest)
		addr, kind, known := it.PendingAccess(u)
		if !known || mem.Conflict(mem.Op{Addr: addr, Kind: kind}, op) {
			out &^= uint64(1) << uint(u)
		}
	}
	return out
}

// finalEqual compares final memory states treating absent entries as zero.
func finalEqual(a, b map[mem.Addr]mem.Value) bool {
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	for k, v := range b {
		if a[k] != v {
			return false
		}
	}
	return true
}

// Outcomes enumerates every distinct sequentially consistent result of p,
// keyed by mem.Result.Key, with one witness execution each. It is useful
// for classifying many observed hardware outcomes against a single
// enumeration.
func Outcomes(p *program.Program, cfg ideal.EnumConfig) (map[string]*mem.Execution, error) {
	out := make(map[string]*mem.Execution)
	_, err := ideal.Enumerate(p, cfg, func(it *ideal.Interp) error {
		exec := it.Execution()
		key := mem.ResultOf(exec).Key()
		if _, dup := out[key]; !dup {
			out[key] = exec
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("scmatch: enumerating outcomes: %w", err)
	}
	return out, nil
}
