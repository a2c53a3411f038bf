// Package runner executes litmus programs repeatedly on simulated
// machines and classifies every distinct observed outcome with
// scmatch.Decide — the familiar litmus-tool histogram, with an SC/non-SC
// mark per outcome.
package runner

import (
	"fmt"
	"sort"
	"strings"

	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/program"
	"weakorder/internal/scmatch"
)

// Report is the outcome of running one litmus program many times on one
// machine configuration: an outcome histogram with per-outcome SC
// classification — the familiar litmus-tool output.
type Report struct {
	Program string
	Config  machine.Config
	Runs    int
	// Outcomes maps Result.Key to its observation count.
	Outcomes map[string]int
	// SCOutcome marks which observed outcomes are sequentially
	// consistent.
	SCOutcome map[string]bool
	// NonSCRuns counts runs whose result matches no SC execution.
	NonSCRuns int
	// ForbiddenRuns counts runs matching a caller-supplied predicate.
	ForbiddenRuns int
	// CondRuns counts runs satisfying the program's own litmus
	// postcondition (program.Cond), when it has one.
	CondRuns int
}

// Config controls the litmus runner.
type Config struct {
	// Seeds is the number of simulations (default 20).
	Seeds int
	// FirstSeed offsets the seed sequence.
	FirstSeed int64
	// Forbidden optionally classifies each result.
	Forbidden func(mem.Result) bool
}

// RunOn simulates prog on cfg across seeds and classifies every outcome
// with scmatch.Decide, once per distinct result.
func RunOn(prog *program.Program, cfg machine.Config, rc Config) (*Report, error) {
	if rc.Seeds == 0 {
		rc.Seeds = 20
	}
	rep := &Report{
		Program:   prog.Name,
		Config:    cfg,
		Outcomes:  make(map[string]int),
		SCOutcome: make(map[string]bool),
	}
	for s := 0; s < rc.Seeds; s++ {
		res, err := machine.Run(prog, cfg, rc.FirstSeed+int64(s))
		if err != nil {
			return nil, err
		}
		rep.Runs++
		key := res.Result.Key()
		rep.Outcomes[key]++
		isSC, seen := rep.SCOutcome[key]
		if !seen {
			m, err := scmatch.Decide(prog, res.Result, scmatch.Config{})
			if err != nil {
				return nil, fmt.Errorf("runner: %s on %s: %w", prog.Name, cfg.Name(), err)
			}
			isSC = m.OK
			rep.SCOutcome[key] = isSC
		}
		if !isSC {
			rep.NonSCRuns++
		}
		if rc.Forbidden != nil && rc.Forbidden(res.Result) {
			rep.ForbiddenRuns++
		}
		if res.CondHolds(prog) {
			rep.CondRuns++
		}
	}
	return rep, nil
}

// String renders the report litmus-tool style.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: %d runs, %d non-SC", r.Program, r.Config.Name(), r.Runs, r.NonSCRuns)
	if r.ForbiddenRuns > 0 {
		fmt.Fprintf(&b, ", %d forbidden", r.ForbiddenRuns)
	}
	if r.CondRuns > 0 {
		fmt.Fprintf(&b, ", %d satisfying the postcondition", r.CondRuns)
	}
	b.WriteByte('\n')
	keys := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if r.Outcomes[keys[i]] != r.Outcomes[keys[j]] {
			return r.Outcomes[keys[i]] > r.Outcomes[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		mark := "   SC"
		if !r.SCOutcome[k] {
			mark = "NONSC"
		}
		fmt.Fprintf(&b, "  %5dx %s %s\n", r.Outcomes[k], mark, k)
	}
	return b.String()
}
