package scmatch

import (
	"errors"
	"sort"
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
	out := mem.Result{Reads: make(map[mem.OpID]mem.ReadObservation, len(r.Reads)), Final: r.Final}
	ids := make([]mem.OpID, 0, len(r.Reads))
	for id, obs := range r.Reads {
		out.Reads[id] = obs
		ids = append(ids, id)
	}
	if len(ids) > 0 {
		sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
		obs := out.Reads[ids[0]]
		obs.Value += 1000
		out.Reads[ids[0]] = obs
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
	r := mem.Result{
		Reads: map[mem.OpID]mem.ReadObservation{
			{Proc: 2, Index: 0}: {ID: mem.OpID{Proc: 2, Index: 0}, Addr: x, Value: 1},
		},
		Final: map[mem.Addr]mem.Value{x: 1},
	}
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
