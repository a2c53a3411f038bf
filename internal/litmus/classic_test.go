package litmus

import (
	"testing"

	"weakorder/internal/ideal"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
)

// TestForbiddenOutcomesAreSCForbidden cross-validates every classic
// test's Forbidden predicate against the exhaustive enumerator: no
// sequentially consistent execution may satisfy it.
func TestForbiddenOutcomesAreSCForbidden(t *testing.T) {
	for _, tc := range Classic() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			_, err := ideal.Enumerate(tc.Prog, ideal.EnumConfig{}, func(it *ideal.Interp) error {
				if tc.Forbidden(mem.ResultOf(it.Execution())) {
					t.Errorf("%s: an SC execution satisfies the forbidden predicate", tc.Name)
					return ideal.ErrStop
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestForbiddenOutcomesAreReachable sanity-checks the predicates are not
// vacuous: some result shape (not necessarily reachable under SC)
// satisfies each.
func TestForbiddenOutcomesAreReachable(t *testing.T) {
	// Handcraft one satisfying result per test.
	mk := func(reads map[mem.OpID]mem.Value, final map[mem.Addr]mem.Value) mem.Result {
		obs := make([]mem.ReadObservation, 0, len(reads))
		for id, v := range reads {
			obs = append(obs, mem.ReadObservation{ID: id, Value: v})
		}
		if final == nil {
			final = map[mem.Addr]mem.Value{}
		}
		return mem.NewResult(obs, final)
	}
	cases := map[string]mem.Result{
		"SB":   mk(map[mem.OpID]mem.Value{{Proc: 0, Index: 1}: 0, {Proc: 1, Index: 1}: 0}, nil),
		"MP":   mk(map[mem.OpID]mem.Value{{Proc: 1, Index: 0}: 1, {Proc: 1, Index: 1}: 0}, nil),
		"S":    mk(map[mem.OpID]mem.Value{{Proc: 1, Index: 0}: 1}, map[mem.Addr]mem.Value{0: 2}),
		"R":    mk(map[mem.OpID]mem.Value{{Proc: 1, Index: 1}: 0}, map[mem.Addr]mem.Value{1: 2}),
		"2+2W": mk(nil, map[mem.Addr]mem.Value{0: 2, 1: 2}),
		"WRC": mk(map[mem.OpID]mem.Value{
			{Proc: 1, Index: 0}: 1, {Proc: 2, Index: 0}: 1, {Proc: 2, Index: 1}: 0}, nil),
		"RWC": mk(map[mem.OpID]mem.Value{
			{Proc: 1, Index: 0}: 1, {Proc: 1, Index: 1}: 0, {Proc: 2, Index: 1}: 0}, nil),
		"IRIW": mk(map[mem.OpID]mem.Value{
			{Proc: 2, Index: 0}: 1, {Proc: 2, Index: 1}: 0,
			{Proc: 3, Index: 0}: 1, {Proc: 3, Index: 1}: 0}, nil),
		"CoRR": mk(map[mem.OpID]mem.Value{{Proc: 1, Index: 0}: 1, {Proc: 1, Index: 1}: 0}, nil),
		"CoWW": mk(nil, map[mem.Addr]mem.Value{0: 1}),
	}
	for _, tc := range Classic() {
		r, ok := cases[tc.Name]
		if !ok {
			t.Errorf("no witness for %s", tc.Name)
			continue
		}
		if !tc.Forbidden(r) {
			t.Errorf("%s: witness does not satisfy the predicate", tc.Name)
		}
	}
}

// TestCoherenceTestsNeverForbiddenOnAnyMachine: the Co* family is
// guaranteed by cache coherence itself, so even the weak machines never
// exhibit those outcomes.
func TestCoherenceTestsNeverForbiddenOnAnyMachine(t *testing.T) {
	for _, tc := range Classic() {
		if !tc.CoherenceOnly {
			continue
		}
		for _, pol := range policy.All() {
			cfg := machine.Config{Policy: pol, Topology: machine.TopoNetwork, Caches: true, NetJitter: 20}
			if cfg.Validate() != nil {
				continue
			}
			for seed := int64(0); seed < 10; seed++ {
				res, err := machine.Run(tc.Prog, cfg, seed)
				if err != nil {
					t.Fatalf("%s %v: %v", tc.Name, pol, err)
				}
				if tc.Forbidden(res.Result) {
					t.Errorf("%s on %v seed %d: coherence-forbidden outcome observed", tc.Name, pol, seed)
				}
			}
		}
	}
}

// TestSCMachineForbidsAllClassicOutcomes: SC hardware never exhibits any
// forbidden outcome.
func TestSCMachineForbidsAllClassicOutcomes(t *testing.T) {
	for _, tc := range Classic() {
		for _, topo := range []machine.Topology{machine.TopoBus, machine.TopoNetwork} {
			cfg := machine.Config{Policy: policy.SC, Topology: topo, Caches: true, NetJitter: 20}
			for seed := int64(0); seed < 5; seed++ {
				res, err := machine.Run(tc.Prog, cfg, seed)
				if err != nil {
					t.Fatalf("%s: %v", tc.Name, err)
				}
				if tc.Forbidden(res.Result) {
					t.Errorf("%s on SC/%v seed %d: forbidden outcome", tc.Name, topo, seed)
				}
			}
		}
	}
}
