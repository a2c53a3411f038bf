package ideal

import (
	"testing"

	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

func collectOutcomes(t *testing.T, p *program.Program, cfg EnumConfig) map[string]int {
	t.Helper()
	out := make(map[string]int)
	_, err := Enumerate(p, cfg, func(it *Interp) error {
		out[mem.ResultOf(it.Execution()).Key()]++
		return nil
	})
	if err != nil {
		t.Fatalf("Enumerate(%s): %v", p.Name, err)
	}
	return out
}

func TestSingleThreadSequential(t *testing.T) {
	b := program.NewBuilder("seq")
	x := b.Var("x")
	th := b.Thread()
	th.LoadImm(program.R0, 2)
	th.Store(x, program.R0)
	th.Load(program.R1, x)
	th.AddImm(program.R1, program.R1, 3)
	th.Store(x, program.R1)
	p := b.MustBuild()

	it, err := RunSeed(p, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := it.MemValue(x); got != 5 {
		t.Fatalf("final x = %d, want 5", got)
	}
	if got := it.Reg(0, program.R1); got != 5 {
		t.Fatalf("r1 = %d, want 5", got)
	}
	if got := it.TraceLen(); got != 3 {
		t.Fatalf("trace length = %d, want 3", got)
	}
}

func TestDekkerEnumerationForbidsBothZero(t *testing.T) {
	p := litmus.Dekker()
	sawForbidden := false
	distinct := make(map[string]bool)
	_, err := Enumerate(p, EnumConfig{}, func(it *Interp) error {
		r := mem.ResultOf(it.Execution())
		distinct[r.Key()] = true
		if litmus.DekkerForbidden(r) {
			sawForbidden = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sawForbidden {
		t.Error("sequential consistency must forbid r0==0 && r1==0 in Dekker")
	}
	// SC allows exactly (0,1), (1,0), (1,1).
	if len(distinct) != 3 {
		t.Errorf("Dekker SC outcomes = %d distinct, want 3", len(distinct))
	}
}

func TestLoadBufferingForbidden(t *testing.T) {
	p := litmus.LoadBuffering()
	_, err := Enumerate(p, EnumConfig{}, func(it *Interp) error {
		r := mem.ResultOf(it.Execution())
		r0 := r.Reads[mem.OpID{Proc: 0, Index: 0}].Value
		r1 := r.Reads[mem.OpID{Proc: 1, Index: 0}].Value
		if r0 == 1 && r1 == 1 {
			t.Error("SC must forbid both loads observing the later stores")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIRIWForbidden(t *testing.T) {
	p := litmus.IRIW()
	_, err := Enumerate(p, EnumConfig{}, func(it *Interp) error {
		if litmus.IRIWForbidden(mem.ResultOf(it.Execution())) {
			t.Error("SC must forbid the IRIW opposite-order observation")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTASAtomicity(t *testing.T) {
	// Two processors TAS the same location once; exactly one must win
	// (observe 0) in every interleaving.
	b := program.NewBuilder("tas2")
	l := b.Var("l")
	b.Thread().TAS(program.R0, l)
	b.Thread().TAS(program.R0, l)
	p := b.MustBuild()

	_, err := Enumerate(p, EnumConfig{}, func(it *Interp) error {
		r := mem.ResultOf(it.Execution())
		a := r.Reads[mem.OpID{Proc: 0, Index: 0}].Value
		bv := r.Reads[mem.OpID{Proc: 1, Index: 0}].Value
		if !((a == 0 && bv == 1) || (a == 1 && bv == 0)) {
			t.Errorf("TAS outcomes (%d,%d): exactly one winner required", a, bv)
		}
		if fin := it.MemValue(l); fin != 1 {
			t.Errorf("final lock value = %d, want 1", fin)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSwapSemantics(t *testing.T) {
	b := program.NewBuilder("swap")
	x := b.Var("x")
	b.InitVar("x", 7)
	th := b.Thread()
	th.SwapImm(program.R0, x, 9)
	p := b.MustBuild()

	it, err := RunSeed(p, Config{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got := it.Reg(0, program.R0); got != 7 {
		t.Fatalf("swap returned %d, want 7", got)
	}
	if got := it.MemValue(x); got != 9 {
		t.Fatalf("swap left %d, want 9", got)
	}
}

func TestEnumerationCountsTwoThreads(t *testing.T) {
	// Two threads of 2 memory ops each: C(4,2) = 6 interleavings.
	b := program.NewBuilder("count")
	x, y := b.Var("x"), b.Var("y")
	t0 := b.Thread()
	t0.StoreImm(x, 1)
	t0.StoreImm(x, 2)
	t1 := b.Thread()
	t1.StoreImm(y, 1)
	t1.StoreImm(y, 2)
	p := b.MustBuild()

	n := 0
	stats, err := Enumerate(p, EnumConfig{}, func(it *Interp) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 || stats.Executions != 6 {
		t.Fatalf("enumerated %d executions (stats %d), want 6", n, stats.Executions)
	}
}

func TestExecutionBudgetTruncation(t *testing.T) {
	// An unbounded spin on a location nobody sets: every path truncates.
	b := program.NewBuilder("spin-forever")
	f := b.Var("f")
	th := b.Thread()
	th.Label("spin")
	th.SyncLoad(program.R0, f)
	th.BeqImm(program.R0, 0, "spin")
	p := b.MustBuild()

	cfg := EnumConfig{Interp: Config{MaxMemOpsPerThread: 8}, SkipTruncated: true}
	stats, err := Enumerate(p, cfg, func(it *Interp) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executions != 0 {
		t.Fatalf("executions = %d, want 0 (spin never completes)", stats.Executions)
	}
	if stats.Truncated == 0 {
		t.Fatal("expected truncated paths")
	}

	// Without SkipTruncated the enumeration must error.
	if _, err := Enumerate(p, EnumConfig{Interp: Config{MaxMemOpsPerThread: 8}}, func(it *Interp) error { return nil }); err == nil {
		t.Fatal("expected ErrTruncated without SkipTruncated")
	}
}

func TestLocalInfiniteLoopDetected(t *testing.T) {
	b := program.NewBuilder("local-loop")
	th := b.Thread()
	th.Label("top")
	th.Jmp("top")
	p := b.MustBuild()

	it := New(p, Config{MaxLocalSteps: 100})
	if _, _, err := it.Step(0); err == nil {
		t.Fatal("local infinite loop must be detected")
	}
}

func TestMaxExecutionsBudget(t *testing.T) {
	p := litmus.Dekker()
	_, err := Enumerate(p, EnumConfig{MaxExecutions: 2}, func(it *Interp) error { return nil })
	if err == nil {
		t.Fatal("expected ErrBudget with MaxExecutions=2 (Dekker has 6 interleavings)")
	}
}

func TestVisitorStop(t *testing.T) {
	p := litmus.Dekker()
	n := 0
	_, err := Enumerate(p, EnumConfig{}, func(it *Interp) error {
		n++
		return ErrStop
	})
	if err != nil {
		t.Fatalf("ErrStop must not propagate as an error: %v", err)
	}
	if n != 1 {
		t.Fatalf("visited %d executions after ErrStop, want 1", n)
	}
}

func TestRunScheduleDeterministic(t *testing.T) {
	p := litmus.Dekker()
	// P0 runs both ops, then P1: r0 = 0 is impossible; P0 reads y==0,
	// P1 reads x==1.
	it, err := RunSchedule(p, Config{}, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := mem.ResultOf(it.Execution())
	if got := r.Reads[mem.OpID{Proc: 0, Index: 1}].Value; got != 0 {
		t.Errorf("P0 read y = %d, want 0", got)
	}
	if got := r.Reads[mem.OpID{Proc: 1, Index: 1}].Value; got != 1 {
		t.Errorf("P1 read x = %d, want 1", got)
	}
}

func TestRunSeedReproducible(t *testing.T) {
	p := litmus.CriticalSection(2, 2)
	a, err := RunSeed(p, Config{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSeed(p, Config{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := mem.ResultOf(a.Execution()), mem.ResultOf(b.Execution())
	if !ra.Equal(rb) {
		t.Error("same seed must reproduce the same execution result")
	}
}

func TestCriticalSectionCounterAlwaysCorrect(t *testing.T) {
	p := litmus.CriticalSection(2, 1)
	counter, _ := p.AddrOf("counter")
	cfg := EnumConfig{Interp: Config{MaxMemOpsPerThread: 12}, SkipTruncated: true}
	n := 0
	_, err := Enumerate(p, cfg, func(it *Interp) error {
		n++
		if got := it.MemValue(counter); got != 2 {
			t.Errorf("final counter = %d, want 2", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no complete executions enumerated")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := litmus.Dekker()
	a := New(p, Config{})
	bI := a.Clone()
	if _, _, err := a.Step(0); err != nil {
		t.Fatal(err)
	}
	if bI.TraceLen() != 0 {
		t.Error("stepping the original must not affect the clone")
	}
	if string(a.AppendStateKey(nil)) == string(bI.AppendStateKey(nil)) {
		t.Error("state keys must differ after one side steps")
	}
}

func TestStateKeyIdentical(t *testing.T) {
	p := litmus.Dekker()
	a, b := New(p, Config{}), New(p, Config{})
	if string(a.AppendStateKey(nil)) != string(b.AppendStateKey(nil)) {
		t.Error("fresh interpreters of the same program must share a state key")
	}
}

func TestStepHaltedThreadErrors(t *testing.T) {
	b := program.NewBuilder("halt")
	b.Thread().Halt()
	p := b.MustBuild()
	it := New(p, Config{})
	// A thread with no memory operations halts during construction.
	if !it.Done() {
		t.Fatal("memory-op-free thread must halt eagerly")
	}
	if _, _, err := it.Step(0); err == nil {
		t.Fatal("stepping a halted thread must error")
	}
}

func TestEvalCondOnInterp(t *testing.T) {
	b := program.NewBuilder("cond")
	x := b.Var("x")
	th := b.Thread()
	th.LoadImm(program.R3, 8)
	th.Store(x, program.R3)
	p := b.MustBuild()
	it, err := RunSeed(p, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	holds := &program.Cond{Terms: []program.CondTerm{
		{Thread: 0, Reg: program.R3, Value: 8},
		{Thread: -1, Addr: x, Value: 8},
	}}
	if !it.EvalCond(holds) {
		t.Error("condition must hold")
	}
	fails := &program.Cond{Terms: []program.CondTerm{{Thread: 0, Reg: program.R3, Value: 9}}}
	if it.EvalCond(fails) {
		t.Error("condition must fail")
	}
	if it.EvalCond(nil) {
		t.Error("nil condition must be false")
	}
}

func TestRunScheduleSkipsInvalidThreadIDs(t *testing.T) {
	p := litmus.Dekker()
	// Invalid ids are ignored; the tail drains round-robin.
	it, err := RunSchedule(p, Config{}, []int{-1, 99, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !it.Done() {
		t.Error("schedule must drain to completion")
	}
}

func TestMaxPathsBudget(t *testing.T) {
	p := litmus.IRIW()
	_, err := Enumerate(p, EnumConfig{MaxPaths: 5}, func(it *Interp) error { return nil })
	if err == nil {
		t.Fatal("expected ErrBudget from MaxPaths")
	}
}
