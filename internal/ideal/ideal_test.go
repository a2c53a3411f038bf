package ideal

import (
	"errors"
	"fmt"
	"maps"
	"slices"
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
	if got := len(it.Trace()); got != 3 {
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

// TestObservedWithoutReadsFilters: an observation holding no reads
// drops every read step, so Dekker, whose threads both read, has no
// execution under it; a nil observation filters nothing.
func TestObservedWithoutReadsFilters(t *testing.T) {
	p := litmus.Dekker()
	executions := func(obs *mem.Result) int {
		stats, err := Enumerate(p, EnumConfig{Observed: obs}, func(*Interp) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return stats.Executions
	}
	if n := executions(&mem.Result{}); n != 0 {
		t.Errorf("no observed reads: %d executions, want 0", n)
	}
	if n := executions(nil); n == 0 {
		t.Error("no observation: no execution visited")
	}
}

func TestLoadBufferingForbidden(t *testing.T) {
	p := litmus.LoadBuffering()
	_, err := Enumerate(p, EnumConfig{}, func(it *Interp) error {
		r := mem.ResultOf(it.Execution())
		r0, _ := r.Read(mem.OpID{Proc: 0, Index: 0})
		r1, _ := r.Read(mem.OpID{Proc: 1, Index: 0})
		if r0.Value == 1 && r1.Value == 1 {
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
		ra, _ := r.Read(mem.OpID{Proc: 0, Index: 0})
		rb, _ := r.Read(mem.OpID{Proc: 1, Index: 0})
		if a, bv := ra.Value, rb.Value; !((a == 0 && bv == 1) || (a == 1 && bv == 0)) {
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

	it := New(p, Config{})
	if _, err := it.Step(0); err == nil {
		t.Fatal("local infinite loop must be detected")
	}
}

// TestLeadingLocalRunBound: a register-only run that leads a thread is
// bounded like any other. New runs it eagerly; once it has overrun the
// bound, every Step of the thread fails with the local-step error, and
// so does the walk. A leading run inside the bound reaches its store.
func TestLeadingLocalRunBound(t *testing.T) {
	countdown := func(n mem.Value) *program.Program {
		b := program.NewBuilder("leading-loop")
		z := b.Var("z")
		th := b.Thread()
		th.LoadImm(program.R1, n)
		th.Label("spin")
		th.AddImm(program.R1, program.R1, -1)
		th.BneImm(program.R1, 0, "spin")
		th.StoreImm(z, 1)
		return b.MustBuild()
	}
	over := countdown(6000) // 12,001 local steps
	it := New(over, Config{})
	const want = "ideal: thread 0 exceeded 10000 local steps (infinite local loop?)"
	for i := 0; i < 2; i++ {
		if _, err := it.Step(0); err == nil || err.Error() != want || !errors.Is(err, program.ErrLocalLoop) {
			t.Fatalf("Step %d: err = %v, want %q", i, err, want)
		}
	}
	if _, _, known := it.PendingAccess(0); known {
		t.Error("a thread whose run overran the bound has no pending access")
	}
	if _, err := Enumerate(over, EnumConfig{}, func(*Interp) error { return nil }); !errors.Is(err, program.ErrLocalLoop) {
		t.Errorf("Enumerate: err = %v, want the local-step error", err)
	}
	stats, err := Enumerate(countdown(4999), EnumConfig{}, func(*Interp) error { return nil }) // 9,999 steps
	if err != nil || stats.Executions != 1 {
		t.Errorf("run inside the bound: %d executions, err = %v; want 1, nil", stats.Executions, err)
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
	if got, _ := r.Read(mem.OpID{Proc: 0, Index: 1}); got.Value != 0 {
		t.Errorf("P0 read y = %d, want 0", got.Value)
	}
	if got, _ := r.Read(mem.OpID{Proc: 1, Index: 1}); got.Value != 1 {
		t.Errorf("P1 read x = %d, want 1", got.Value)
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

// TestCloneIndependence: two interpreters of one program share no
// state, so stepping one changes its state key and not the other's.
func TestCloneIndependence(t *testing.T) {
	p := litmus.Dekker()
	a, b := New(p, Config{}), New(p, Config{})
	if _, err := a.Step(0); err != nil {
		t.Fatal(err)
	}
	if string(a.AppendStateKey(nil)) == string(b.AppendStateKey(nil)) {
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
	if _, err := it.Step(0); err == nil {
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

// TestEnumeratedTracesReplay checks the walk's shared path trace:
// every execution it visits, with reduction off or on, must be exactly
// what replaying its own schedule from scratch produces — the same
// operations and the same final memory — so no sibling branch has
// written over it.
func TestEnumeratedTracesReplay(t *testing.T) {
	for _, p := range litmus.All() {
		for _, reduce := range []bool{false, true} {
			cfg := EnumConfig{Interp: Config{MaxMemOpsPerThread: 6}, SkipTruncated: true, MaxPaths: 20_000, Reduce: reduce}
			_, err := Enumerate(p, cfg, func(it *Interp) error {
				got := it.Execution()
				if !slices.Equal(it.Trace(), got.Ops) {
					t.Fatalf("%s: Trace and Execution disagree", p.Name)
				}
				sched := make([]int, len(got.Ops))
				for i, op := range got.Ops {
					sched[i] = op.Proc
				}
				want, err := RunSchedule(p, cfg.Interp, sched)
				if err != nil {
					return err
				}
				if !slices.Equal(want.Execution().Ops, got.Ops) || !maps.Equal(want.Execution().Final, got.Final) {
					t.Fatalf("%s (reduce=%v): visited execution differs from its replay\n got  %v\n want %v", p.Name, reduce, got, want.Execution())
				}
				return nil
			})
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatalf("%s: %v", p.Name, err)
			}
		}
	}
}

// TestStateKeyMemoryEncoding pins the state key's memory section to its
// definition: the non-zero (address, value) pairs of the final memory
// map in ascending address order, after the thread contexts.
func TestStateKeyMemoryEncoding(t *testing.T) {
	for _, p := range litmus.All() {
		cfg := EnumConfig{Interp: Config{MaxMemOpsPerThread: 6}, SkipTruncated: true, MaxPaths: 5_000}
		_, err := Enumerate(p, cfg, func(it *Interp) error {
			var want []byte
			for i := range it.threads {
				ts := &it.threads[i]
				want = appendVarint(want, int64(ts.pc))
				want = appendVarint(want, int64(ts.nextIx))
				want = append(want, 0)
				if ts.halted {
					want[len(want)-1] = 1
				}
				for _, r := range ts.regs {
					want = appendVarint(want, int64(r))
				}
			}
			want = append(want, 0xFF)
			final := it.Execution().Final
			addrs := make([]mem.Addr, 0, len(final))
			for a := range final {
				addrs = append(addrs, a)
			}
			slices.Sort(addrs)
			for _, a := range addrs {
				if final[a] != 0 {
					want = appendVarint(want, int64(a))
					want = appendVarint(want, int64(final[a]))
				}
			}
			if got := it.AppendStateKey(nil); string(got) != string(want) {
				t.Fatalf("%s: state key %x, want %x", p.Name, got, want)
			}
			return nil
		})
		if err != nil && !errors.Is(err, ErrBudget) {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
}

func TestMemValueOutsideProgram(t *testing.T) {
	p := litmus.Dekker()
	it := New(p, Config{})
	if v := it.MemValue(mem.Addr(1 << 20)); v != 0 {
		t.Errorf("MemValue of an address the program never names = %d, want 0", v)
	}
}

// TestMemoReuse: a reset memo forgets every key and sleep set of the
// walk before, and keys stored after the reset, into reused chunks and
// new ones (including keys longer than a chunk), still match only their
// exact bytes.
func TestMemoReuse(t *testing.T) {
	key := func(i int) []byte {
		pad := i % 9 * 40
		if i%997 == 0 {
			pad = memoChunkMax
		}
		return append([]byte(fmt.Sprint(i, ":")), make([]byte, pad)...)
	}
	m := getMemo()
	defer putMemo(m)
	for _, n := range []int{3000, 200, 6000, 3000} {
		m.reset()
		for i := n - 1; i >= 0; i-- {
			if m.covered(key(i), 1) {
				t.Fatalf("after reset, key %d of %d reported explored", i, n)
			}
		}
		for i := range n {
			if !m.covered(key(i), 3) {
				t.Fatalf("key %d of %d: explored under {0} but not covered under {0,1}", i, n)
			}
			if m.covered(key(i), 2) {
				t.Fatalf("key %d of %d: explored under {0} but covered under {1}", i, n)
			}
			if !m.covered(key(i), 2) {
				t.Fatalf("key %d of %d: second visit under {1} not recorded", i, n)
			}
		}
		if m.covered(key(n), 3) {
			t.Fatalf("key %d never stored but reported explored", n)
		}
	}
}
