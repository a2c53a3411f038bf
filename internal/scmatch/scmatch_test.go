package scmatch

import (
	"errors"
	"math"
	"slices"
	"testing"

	"weakorder/internal/ideal"
	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// dekkerResult builds a Dekker result with the given read values and the
// always-final state x=1, y=1.
func dekkerResult(r0, r1 mem.Value) mem.Result {
	return mem.NewResult([]mem.ReadObservation{
		{ID: mem.OpID{Proc: 0, Index: 1}, Addr: 1, Value: r0},
		{ID: mem.OpID{Proc: 1, Index: 1}, Addr: 0, Value: r1},
	}, map[mem.Addr]mem.Value{0: 1, 1: 1})
}

func TestDekkerAllowedOutcomes(t *testing.T) {
	p := litmus.Dekker()
	for _, tc := range []struct {
		r0, r1 mem.Value
		want   bool
	}{
		{0, 1, true},
		{1, 0, true},
		{1, 1, true},
		{0, 0, false}, // the Figure 1 violation
	} {
		m, err := Matches(p, dekkerResult(tc.r0, tc.r1), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if m.OK != tc.want {
			t.Errorf("Dekker (%d,%d): appears-SC = %v, want %v", tc.r0, tc.r1, m.OK, tc.want)
		}
		if m.OK && m.Witness == nil {
			t.Error("matching result must carry a witness execution")
		}
	}
}

func TestWitnessResultMatches(t *testing.T) {
	p := litmus.Dekker()
	m, err := Matches(p, dekkerResult(1, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.OK {
		t.Fatal("(1,1) must appear SC")
	}
	if got := mem.ResultOf(m.Witness); !got.Equal(dekkerResult(1, 1)) {
		t.Errorf("witness result %v does not equal queried result", got)
	}
}

func TestRoundTripIdealExecutionsAppearSC(t *testing.T) {
	// Any result produced by the idealized architecture trivially appears
	// SC: Matches must find it.
	for _, prog := range []*program.Program{
		litmus.Dekker(),
		litmus.DekkerSync(),
		litmus.MessagePassingBounded(),
		litmus.IRIW(),
		litmus.Coherence(),
		litmus.CriticalSection(2, 1),
	} {
		for seed := int64(0); seed < 5; seed++ {
			it, err := ideal.RunSeed(prog, ideal.Config{}, seed)
			if err != nil {
				t.Fatalf("%s: %v", prog.Name, err)
			}
			r := mem.ResultOf(it.Execution())
			m, err := Matches(prog, r, Config{})
			if err != nil {
				t.Fatalf("%s: %v", prog.Name, err)
			}
			if !m.OK {
				t.Errorf("%s seed %d: idealized result must appear SC:\n%v", prog.Name, seed, r)
			}
		}
	}
}

func TestIRIWForbiddenDoesNotMatch(t *testing.T) {
	p := litmus.IRIW()
	r := mem.NewResult([]mem.ReadObservation{
		{ID: mem.OpID{Proc: 2, Index: 0}, Addr: 0, Value: 1},
		{ID: mem.OpID{Proc: 2, Index: 1}, Addr: 1, Value: 0},
		{ID: mem.OpID{Proc: 3, Index: 0}, Addr: 1, Value: 1},
		{ID: mem.OpID{Proc: 3, Index: 1}, Addr: 0, Value: 0},
	}, map[mem.Addr]mem.Value{0: 1, 1: 1})
	m, err := Matches(p, r, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.OK {
		t.Error("IRIW opposite-order observation must not appear SC")
	}
}

func TestCoherenceViolationDoesNotMatch(t *testing.T) {
	// Two readers observing x=1,x=2 vs x=2,x=1 with final x=2: the second
	// reader's (2,1) contradicts write serialization under SC.
	p := litmus.Coherence()
	r := mem.NewResult([]mem.ReadObservation{
		{ID: mem.OpID{Proc: 1, Index: 0}, Addr: 0, Value: 1},
		{ID: mem.OpID{Proc: 1, Index: 1}, Addr: 0, Value: 2},
		{ID: mem.OpID{Proc: 2, Index: 0}, Addr: 0, Value: 2},
		{ID: mem.OpID{Proc: 2, Index: 1}, Addr: 0, Value: 1},
	}, map[mem.Addr]mem.Value{0: 2})
	m, err := Matches(p, r, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.OK {
		t.Error("coherence violation must not appear SC")
	}
}

func TestWrongFinalStateDoesNotMatch(t *testing.T) {
	p := litmus.Dekker()
	r := dekkerResult(1, 1)
	r.Final[0] = 7 // impossible final value
	m, err := Matches(p, r, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.OK {
		t.Error("impossible final state must not appear SC")
	}
}

func TestMissingReadDoesNotMatch(t *testing.T) {
	p := litmus.Dekker()
	r := dekkerResult(1, 1)
	r.Reads = slices.DeleteFunc(r.Reads, func(o mem.ReadObservation) bool {
		return o.ID == mem.OpID{Proc: 1, Index: 1}
	})
	m, err := Matches(p, r, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.OK {
		t.Error("a result missing an observed read must not match")
	}
}

func TestExtraReadDoesNotMatch(t *testing.T) {
	p := litmus.Dekker()
	r := dekkerResult(1, 1)
	r = mem.NewResult(append(r.Reads, mem.ReadObservation{
		ID: mem.OpID{Proc: 0, Index: 5}, Addr: 0, Value: 0,
	}), r.Final)
	m, err := Matches(p, r, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.OK {
		t.Error("a result with a phantom read must not match")
	}
}

func TestStateBudget(t *testing.T) {
	p := litmus.IRIW()
	r := mem.ResultOf(mustRun(t, p, 1))
	if _, err := Matches(p, r, Config{MaxStates: 1}); err == nil {
		t.Error("expected ErrBudget with MaxStates=1")
	}
}

// TestStatesIsTheBudgetUnit pins Match.States to the unit MaxStates
// bounds, on every SC outcome of the litmus suite and a perturbed copy
// of each: bounded at exactly the States an unbounded search took, the
// search decides the same way; bounded one state lower, it runs out.
func TestStatesIsTheBudgetUnit(t *testing.T) {
	checked := 0
	for _, p := range litmus.All() {
		for _, sc := range enumResults(t, p) {
			for _, r := range []mem.Result{sc, perturb(sc)} {
				full, err := Matches(p, r, Config{MaxStates: math.MaxInt})
				if err != nil {
					t.Fatalf("%s: unbounded: %v", p.Name, err)
				}
				if full.States <= 1 {
					continue
				}
				checked++
				at, err := Matches(p, r, Config{MaxStates: full.States})
				if err != nil || at.OK != full.OK {
					t.Errorf("%s %s: bounded at %d states: OK=%v err=%v, want OK=%v",
						p.Name, r.Key(), full.States, at.OK, err, full.OK)
				}
				if _, err := Matches(p, r, Config{MaxStates: full.States - 1}); !errors.Is(err, ErrBudget) {
					t.Errorf("%s %s: bounded at %d states: err=%v, want ErrBudget",
						p.Name, r.Key(), full.States-1, err)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no query took more than one state")
	}
}

func mustRun(t *testing.T, p *program.Program, seed int64) *mem.Execution {
	t.Helper()
	it, err := ideal.RunSeed(p, ideal.Config{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return it.Execution()
}

func TestOutcomesEnumeration(t *testing.T) {
	p := litmus.Dekker()
	out, err := Outcomes(p, ideal.EnumConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("Dekker has %d distinct SC outcomes, want 3", len(out))
	}
	for key, exec := range out {
		if got := mem.ResultOf(exec).Key(); got != key {
			t.Errorf("outcome key %q does not round-trip (%q)", key, got)
		}
	}
}

func TestMemoizationStillFindsMatches(t *testing.T) {
	// A program with many redundant interleavings of independent writes:
	// the memoized search must still find the unique result quickly.
	b := program.NewBuilder("independent")
	for i := 0; i < 4; i++ {
		th := b.Thread()
		a := b.Var(string(rune('a' + i)))
		th.StoreImm(a, 1)
		th.StoreImm(a, 2)
		th.Load(program.R0, a)
	}
	p := b.MustBuild()

	it, err := ideal.RunSeed(p, ideal.Config{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	r := mem.ResultOf(it.Execution())
	m, err := Matches(p, r, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.OK {
		t.Fatal("independent-writes result must appear SC")
	}
}
