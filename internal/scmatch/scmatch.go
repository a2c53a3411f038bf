// Package scmatch decides whether an observed hardware result "appears
// sequentially consistent": whether some execution of the program on the
// idealized architecture (atomic memory operations, program order)
// produces the identical result — the same value for every dynamic read
// and the same final memory state. This is the executable form of the
// right-hand side of Definition 2 and of the condition in Lemma 1.
//
// The search is the idealized enumeration itself (ideal.Enumerate) with
// every read checked against the observation (EnumConfig.Observed): an
// interleaving whose next read returns another value is pruned, and the
// walk stops at the first complete execution whose final memory also
// matches. The enumerator's sleep-set reduction and state memo
// (ideal.EnumConfig.Reduce) skip interleavings that merely commute
// non-conflicting operations of an already-searched branch; such
// interleavings produce the identical result, so they cannot change the
// verdict.
//
// Decide is the verdict-only entry point every checker uses: the
// polynomial saturation procedure (internal/sat) first, the search only
// for what it cannot decide. Matches is the search alone, for callers
// that need a witness execution.
package scmatch

import (
	"errors"
	"fmt"

	"weakorder/internal/ideal"
	"weakorder/internal/mem"
	"weakorder/internal/program"
	"weakorder/internal/sat"
)

// Config bounds the search.
type Config struct {
	// MaxStates aborts the search after visiting this many states
	// (0 = DefaultMaxStates).
	MaxStates int
	// Cancel, when non-nil, is polled periodically during the search;
	// returning true aborts with ErrCanceled. Cancellation is
	// cooperative (no goroutines), so an abandoned search leaks nothing.
	Cancel func() bool
}

// DefaultMaxStates bounds the search. A state is one interpreter step
// the enumerator takes (ideal.EnumStats.Steps); steps whose read
// contradicts the observation are not counted.
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

// Match is the outcome of an appears-SC query.
type Match struct {
	// OK reports whether some sequentially consistent execution produces
	// the observed result.
	OK bool
	// Witness is one such execution when OK and the search decided;
	// Decide's saturation verdicts carry none.
	Witness *mem.Execution
	// States is the number of interpreter states the search visited
	// (see DefaultMaxStates).
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
	var m Match
	stats, err := ideal.Enumerate(p, ideal.EnumConfig{
		MaxPaths:      cfg.maxStates(),
		SkipTruncated: true,
		Reduce:        true,
		Cancel:        cfg.Cancel,
		Observed:      &r,
	}, func(it *ideal.Interp) error {
		exec := it.Execution()
		if !mem.ResultOf(exec).Equal(r) {
			return nil
		}
		m.OK, m.Witness = true, exec
		return ideal.ErrStop
	})
	m.States = stats.Steps
	switch {
	case errors.Is(err, ideal.ErrBudget):
		err = ErrBudget
	case errors.Is(err, ideal.ErrCanceled):
		err = ErrCanceled
	}
	return m, err
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
