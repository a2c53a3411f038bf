package scmatch

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"weakorder/internal/ideal"
	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/program"
	"weakorder/internal/sat"
)

// enumResults collects every distinct SC result of p.
func enumResults(t *testing.T, p *program.Program) []mem.Result {
	t.Helper()
	seen := make(map[string]bool)
	var out []mem.Result
	_, err := ideal.Enumerate(p, ideal.EnumConfig{
		Interp:        ideal.Config{MaxMemOpsPerThread: 16},
		SkipTruncated: true,
		MaxPaths:      200_000,
		Reduce:        true,
	}, func(it *ideal.Interp) error {
		r := mem.ResultOf(it.Execution())
		if k := r.Key(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: enumerate: %v", p.Name, err)
	}
	return out
}

// perturb copies r with its lowest-OpID read bumped by +1000: usually
// unreachable, occasionally still matched by another interleaving.
func perturb(r mem.Result) mem.Result {
	out := mem.Result{Reads: slices.Clone(r.Reads), Final: r.Final}
	if len(out.Reads) > 0 {
		out.Reads[0].Value += 1000
	}
	return out
}

// TestDecideAgreesWithSearch is Decide's differential against the
// search alone: every SC outcome of the classic litmus suite, and a
// perturbed copy of each, must get the same verdict from both. Searches
// that exhaust the budget yield no reference verdict and are skipped.
func TestDecideAgreesWithSearch(t *testing.T) {
	cfg := Config{MaxStates: 300_000}
	bySat := 0
	for _, tc := range litmus.Classic() {
		for _, sc := range enumResults(t, tc.Prog) {
			for _, r := range []mem.Result{sc, perturb(sc)} {
				d, err := Decide(tc.Prog, r, cfg)
				if err != nil {
					t.Fatalf("%s: Decide: %v", tc.Name, err)
				}
				m, err := Matches(tc.Prog, r, cfg)
				if errors.Is(err, ErrBudget) {
					continue
				}
				if err != nil {
					t.Fatalf("%s: Matches: %v", tc.Name, err)
				}
				if d.OK != m.OK {
					t.Errorf("%s: Decide=%v (sat=%v %s) but Matches=%v on %s",
						tc.Name, d.OK, d.Sat, d.SatFallback, m.OK, r.Key())
				}
				if d.Sat {
					bySat++
				}
			}
		}
	}
	if bySat == 0 {
		t.Error("saturation decided no litmus query; the differential is vacuous")
	}
}

// TestDecideFallsBackToSearch: a query saturation cannot decide (two
// same-value writers racing with a reader) is answered by the search,
// and the Match names saturation's reason.
func TestDecideFallsBackToSearch(t *testing.T) {
	b := program.NewBuilder("ambiguous")
	x := b.Var("x")
	b.Thread().StoreImm(x, 1)
	b.Thread().StoreImm(x, 1)
	b.Thread().Load(program.R0, x)
	p := b.MustBuild()
	r := mem.NewResult([]mem.ReadObservation{
		{ID: mem.OpID{Proc: 2, Index: 0}, Addr: x, Value: 1},
	}, map[mem.Addr]mem.Value{x: 1})
	m, err := Decide(p, r, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.OK || m.Sat || m.Witness == nil {
		t.Fatalf("Decide = %+v, want a search match with a witness", m)
	}
	if m.SatFallback != sat.ReasonAmbiguousRF && m.SatFallback != sat.ReasonCoIncomplete {
		t.Errorf("SatFallback = %q, want an rf/co ambiguity", m.SatFallback)
	}
	if _, err := Decide(p, r, Config{MaxStates: 1}); !errors.Is(err, ErrBudget) {
		t.Errorf("Decide with MaxStates 1: err = %v, want ErrBudget", err)
	}
}

// TestDecideFallbackReasons pins where each query that saturation hands
// on ends up: for one query per fallback reason the production Decide
// can reach, Decide reports Sat false, names the reason, and answers
// exactly the (OK, err) that Matches answers for the same query. The
// two replay-budget queries also overrun the interpreter's local-step
// bound, so both return that error, which is neither ErrBudget nor
// ErrCanceled. sat.ReasonWitness is not listed: it guards a witness
// built from a full resolution, is documented as unreachable, and no
// query is known to reach it. A canceled query returns ErrCanceled
// whatever its reason.
func TestDecideFallbackReasons(t *testing.T) {
	twoStores := func(name string, reader bool) (*program.Program, mem.Addr) {
		b := program.NewBuilder(name)
		x := b.Var("x")
		b.Thread().StoreImm(x, 1)
		b.Thread().StoreImm(x, 1)
		if reader {
			b.Thread().Load(program.R0, x)
		}
		return b.MustBuild(), x
	}
	ambiguous, x := twoStores("ambiguous-rf", true)
	unordered, _ := twoStores("co-incomplete", false)

	b := program.NewBuilder("too-large")
	y := b.Var("y")
	th := b.Thread()
	th.Label("top")
	th.Store(y, program.R1)
	th.AddImm(program.R1, program.R1, 1)
	th.BltImm(program.R1, 4100, "top")
	large := b.MustBuild()

	// 12,000 register-only steps between two stores, and 12,001
	// before a thread's first store. The bound is the same for a run
	// that leads a thread as for one that follows a memory operation.
	b = program.NewBuilder("replay-budget")
	z := b.Var("z")
	th = b.Thread()
	th.StoreImm(z, 2)
	th.Label("spin")
	th.AddImm(program.R1, program.R1, 1)
	th.BltImm(program.R1, 6000, "spin")
	th.StoreImm(z, 1)
	spin := b.MustBuild()

	b = program.NewBuilder("replay-budget-leading")
	z = b.Var("z")
	th = b.Thread()
	th.LoadImm(program.R1, 6000)
	th.Label("spin")
	th.AddImm(program.R1, program.R1, -1)
	th.BneImm(program.R1, 0, "spin")
	th.StoreImm(z, 1)
	leading := b.MustBuild()

	for _, tc := range []struct {
		reason string
		p      *program.Program
		r      mem.Result
	}{
		{sat.ReasonAmbiguousRF, ambiguous, mem.NewResult([]mem.ReadObservation{
			{ID: mem.OpID{Proc: 2, Index: 0}, Addr: x, Value: 1},
		}, map[mem.Addr]mem.Value{x: 1})},
		{sat.ReasonCoIncomplete, unordered, mem.Result{Final: map[mem.Addr]mem.Value{x: 1}}},
		{sat.ReasonTooLarge, large, mem.Result{Final: map[mem.Addr]mem.Value{y: 4099}}},
		{sat.ReasonReplayBudget, spin, mem.Result{Final: map[mem.Addr]mem.Value{z: 1}}},
		{sat.ReasonReplayBudget, leading, mem.Result{Final: map[mem.Addr]mem.Value{z: 1}}},
	} {
		d, derr := Decide(tc.p, tc.r, Config{})
		m, merr := Matches(tc.p, tc.r, Config{})
		if d.Sat || d.SatFallback != tc.reason {
			t.Errorf("%s: Sat=%v SatFallback=%q, want a search answer after %q", tc.p.Name, d.Sat, d.SatFallback, tc.reason)
		}
		if d.OK != m.OK || fmt.Sprint(derr) != fmt.Sprint(merr) {
			t.Errorf("%s: Decide = (%v, %v), Matches = (%v, %v)", tc.p.Name, d.OK, derr, m.OK, merr)
		}
		if tc.reason == sat.ReasonReplayBudget {
			if derr == nil || errors.Is(derr, ErrBudget) || errors.Is(derr, ErrCanceled) {
				t.Errorf("%s: err = %v, want the interpreter's local-step error", tc.p.Name, derr)
			}
		} else if derr != nil || !d.OK {
			t.Errorf("%s: Decide = (%v, %v), want a match", tc.p.Name, d.OK, derr)
		}
		if _, err := Decide(tc.p, tc.r, Config{Cancel: func() bool { return true }}); !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: canceled Decide: err = %v, want ErrCanceled", tc.p.Name, err)
		}
	}
}

// TestDecideCancel: one cancel hook covers the whole decision, so a
// cancel that fires during saturation already returns ErrCanceled.
func TestDecideCancel(t *testing.T) {
	_, err := Decide(litmus.Dekker(), dekkerResult(0, 0), Config{
		Cancel: func() bool { return true },
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
