package vclock

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"weakorder/internal/hb"
	"weakorder/internal/ideal"
	"weakorder/internal/litmus"
	"weakorder/internal/program"
)

func TestVCBasics(t *testing.T) {
	a := NewVC(3)
	b := NewVC(3)
	a.Tick(0)
	a.Tick(0)
	b.Tick(1)
	if a.LEQ(b) || b.LEQ(a) {
		t.Error("clocks advanced on different components must be concurrent")
	}
	if !a.Concurrent(b) {
		t.Error("Concurrent must report true for incomparable clocks")
	}
	j := a.Clone()
	j.Join(b)
	if !a.LEQ(j) || !b.LEQ(j) {
		t.Error("join must dominate both inputs")
	}
	if j.String() != "<2,1,0>" {
		t.Errorf("String = %q, want <2,1,0>", j.String())
	}
}

func TestVCJoinProperties(t *testing.T) {
	mk := func(xs [3]uint8) VC {
		v := NewVC(3)
		for i, x := range xs {
			v[i] = uint64(x)
		}
		return v
	}
	// Join is commutative and idempotent.
	f := func(a, b [3]uint8) bool {
		x, y := mk(a), mk(b)
		j1 := x.Clone()
		j1.Join(y)
		j2 := y.Clone()
		j2.Join(x)
		if !j1.LEQ(j2) || !j2.LEQ(j1) {
			return false
		}
		j3 := j1.Clone()
		j3.Join(j1)
		return j3.LEQ(j1) && j1.LEQ(j3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVCLEQPartialOrder(t *testing.T) {
	mk := func(xs [3]uint8) VC {
		v := NewVC(3)
		for i, x := range xs {
			v[i] = uint64(x)
		}
		return v
	}
	refl := func(a [3]uint8) bool { v := mk(a); return v.LEQ(v) }
	trans := func(a, b, c [3]uint8) bool {
		x, y, z := mk(a), mk(b), mk(c)
		if x.LEQ(y) && y.LEQ(z) {
			return x.LEQ(z)
		}
		return true
	}
	if err := quick.Check(refl, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(trans, nil); err != nil {
		t.Error(err)
	}
}

func TestDetectorFindsDirectRace(t *testing.T) {
	e := litmus.Figure2b()
	races := CheckExecution(e, hb.SyncAll)
	if len(races) == 0 {
		t.Fatal("Figure 2(b) must contain races")
	}
}

func TestDetectorCleanOnFigure2a(t *testing.T) {
	e := litmus.Figure2a()
	if races := CheckExecution(e, hb.SyncAll); len(races) != 0 {
		t.Fatalf("Figure 2(a) must be race-free, got %v", races)
	}
}

func TestDetectorSyncChainOrders(t *testing.T) {
	// W(x) by P0, sync handoff, R(x) by P1: no race.
	p := litmus.MessagePassingBounded()
	it, err := ideal.RunSeed(p, ideal.Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if races := CheckExecution(it.Execution(), hb.SyncAll); len(races) != 0 {
		t.Fatalf("synchronized handoff must be race-free, got %v", races)
	}
}

// TestDetectorAgreesWithHB cross-validates the vector-clock detector
// against the exhaustive pairwise happens-before analysis on every
// enumerated execution of every litmus program, under both sync modes.
func TestDetectorAgreesWithHB(t *testing.T) {
	for _, prog := range litmus.All() {
		for _, mode := range []hb.SyncMode{hb.SyncAll, hb.SyncWriterOrdered, hb.SyncPairedRA} {
			cfg := ideal.EnumConfig{
				Interp:        ideal.Config{MaxMemOpsPerThread: 8},
				SkipTruncated: true,
				MaxPaths:      500_000,
			}
			checked := 0
			_, err := ideal.Enumerate(prog, cfg, func(it *ideal.Interp) error {
				checked++
				if checked > 200 {
					return ideal.ErrStop
				}
				exec := it.Execution()
				hbRaces := hb.Build(exec, mode).Races()
				vcRaces := CheckExecution(exec, mode)
				if (len(hbRaces) > 0) != (len(vcRaces) > 0) {
					t.Errorf("%s [%v]: hb found %d races, vclock found %d\nexecution:\n%v",
						prog.Name, mode, len(hbRaces), len(vcRaces), exec)
					return ideal.ErrStop
				}
				return nil
			})
			if err != nil && err != ideal.ErrBudget {
				t.Fatalf("%s: %v", prog.Name, err)
			}
		}
	}
}

func TestDetectorWriterOrderedReadOnlyPublication(t *testing.T) {
	// P0: W(data); SR(flag) completes before P1: SW(flag); R(data).
	// SyncAll: SR->SW edge orders the data accesses. WriterOrdered: no
	// edge from a read-only sync op; race.
	b := program.NewBuilder("ro-pub")
	data, flag := b.Var("data"), b.Var("flag")
	p0 := b.Thread()
	p0.StoreImm(data, 1)
	p0.SyncLoad(program.R0, flag)
	p1 := b.Thread()
	p1.SyncStoreImm(flag, 1)
	p1.Load(program.R1, data)
	p := b.MustBuild()

	it, err := ideal.RunSchedule(p, ideal.Config{}, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	exec := it.Execution()
	if races := CheckExecution(exec, hb.SyncAll); len(races) != 0 {
		t.Errorf("SyncAll: want race-free, got %v", races)
	}
	if races := CheckExecution(exec, hb.SyncWriterOrdered); len(races) == 0 {
		t.Error("SyncWriterOrdered: want a race through the dropped read-only edge")
	}
}

func TestDetectorReportsPriorAccessKind(t *testing.T) {
	p := litmus.Dekker()
	it, err := ideal.RunSchedule(p, ideal.Config{}, []int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	races := CheckExecution(it.Execution(), hb.SyncAll)
	if len(races) == 0 {
		t.Fatal("Dekker execution must race")
	}
	for _, r := range races {
		if r.String() == "" {
			t.Error("race must render")
		}
	}
}

func TestDetectorIgnoresBoundaryOps(t *testing.T) {
	d := NewDetector(2, hb.SyncAll)
	d.Observe(litmus.Figure2a().Ops[0]) // fine
	// Boundary proc ids must be ignored, not panic.
	d.Observe(litmus.Figure2b().Ops[0])
	aug := hb.Augment(litmus.Figure2a(), nil)
	for _, op := range aug.Ops {
		if op.Proc < 0 {
			d.Observe(op)
		}
	}
	if d.HasRace() {
		t.Error("observing boundary ops alone must not create races")
	}
}

// TestDetectorResetMatchesFresh: one detector, Reset between
// executions, reports exactly the races a fresh detector reports on
// each, in every mode.
func TestDetectorResetMatchesFresh(t *testing.T) {
	for _, prog := range litmus.All() {
		for _, mode := range []hb.SyncMode{hb.SyncAll, hb.SyncWriterOrdered, hb.SyncPairedRA} {
			d := NewDetector(prog.NumThreads(), mode)
			cfg := ideal.EnumConfig{Interp: ideal.Config{MaxMemOpsPerThread: 6}, SkipTruncated: true, MaxPaths: 20_000, Reduce: true}
			_, err := ideal.Enumerate(prog, cfg, func(it *ideal.Interp) error {
				d.Reset()
				for _, op := range it.Trace() {
					d.Observe(op)
				}
				want := CheckExecution(it.Execution(), mode)
				if !reflect.DeepEqual(d.Races(), want) && len(d.Races())+len(want) > 0 {
					t.Fatalf("%s [%v]: reused detector found %v, fresh found %v", prog.Name, mode, d.Races(), want)
				}
				return nil
			})
			if err != nil && !errors.Is(err, ideal.ErrBudget) {
				t.Fatalf("%s: %v", prog.Name, err)
			}
		}
	}
}
