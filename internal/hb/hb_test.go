package hb

import (
	"testing"

	"weakorder/internal/ideal"
	"weakorder/internal/litmus"
	"weakorder/internal/mem"
)

// findOp locates a (proc, index) op's position in an execution.
func findOp(t *testing.T, e *mem.Execution, proc, index int) int {
	t.Helper()
	for i, op := range e.Ops {
		if op.Proc == proc && op.Index == index {
			return i
		}
	}
	t.Fatalf("no op P%d.%d in execution", proc, index)
	return -1
}

func TestProgramOrderIsHB(t *testing.T) {
	e := &mem.Execution{
		Procs: 1,
		Ops: []mem.Op{
			{Proc: 0, Index: 0, Kind: mem.Write, Addr: 0},
			{Proc: 0, Index: 1, Kind: mem.Write, Addr: 1},
			{Proc: 0, Index: 2, Kind: mem.Read, Addr: 0},
		},
	}
	g := Build(e, SyncAll)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if !g.HappensBefore(i, j) {
				t.Errorf("program order P0.%d -> P0.%d missing from hb", i, j)
			}
			if g.HappensBefore(j, i) {
				t.Errorf("hb must not order P0.%d before P0.%d", j, i)
			}
		}
	}
	if err := g.CheckStrictPartialOrder(); err != nil {
		t.Error(err)
	}
}

func TestSyncOrderCreatesCrossProcessorHB(t *testing.T) {
	// The paper's chain: op(P0,x) po S(P0,s) so S(P1,s) po op(P1,x).
	e := &mem.Execution{
		Procs: 2,
		Ops: []mem.Op{
			{Proc: 0, Index: 0, Kind: mem.Write, Addr: 0},   // W(x)
			{Proc: 0, Index: 1, Kind: mem.SyncRMW, Addr: 5}, // S(s)
			{Proc: 1, Index: 0, Kind: mem.SyncRMW, Addr: 5}, // S(s)
			{Proc: 1, Index: 1, Kind: mem.Read, Addr: 0},    // R(x)
		},
	}
	g := Build(e, SyncAll)
	if !g.HappensBefore(0, 3) {
		t.Error("W(x) must happen-before R(x) through the synchronization chain")
	}
	if len(g.Races()) != 0 {
		t.Errorf("no races expected, got %v", g.Races())
	}
}

func TestTwoStepSyncChain(t *testing.T) {
	// op(P0,x) S(P0,s) | S(P1,s) S(P1,t) | S(P2,t) op(P2,x):
	// transitive chain across two sync locations (the paper's example).
	e := &mem.Execution{
		Procs: 3,
		Ops: []mem.Op{
			{Proc: 0, Index: 0, Kind: mem.Write, Addr: 0},
			{Proc: 0, Index: 1, Kind: mem.SyncRMW, Addr: 10},
			{Proc: 1, Index: 0, Kind: mem.SyncRMW, Addr: 10},
			{Proc: 1, Index: 1, Kind: mem.SyncRMW, Addr: 11},
			{Proc: 2, Index: 0, Kind: mem.SyncRMW, Addr: 11},
			{Proc: 2, Index: 1, Kind: mem.Write, Addr: 0},
		},
	}
	g := Build(e, SyncAll)
	if !g.HappensBefore(0, 5) {
		t.Error("two-step synchronization chain must order the conflicting writes")
	}
	if races := g.Races(); len(races) != 0 {
		t.Errorf("unexpected races: %v", races)
	}
}

func TestUnorderedConflictIsRace(t *testing.T) {
	e := &mem.Execution{
		Procs: 2,
		Ops: []mem.Op{
			{Proc: 0, Index: 0, Kind: mem.Write, Addr: 0, Data: 1},
			{Proc: 1, Index: 0, Kind: mem.Write, Addr: 0, Data: 2},
		},
	}
	g := Build(e, SyncAll)
	races := g.Races()
	if len(races) != 1 {
		t.Fatalf("races = %v, want exactly 1", races)
	}
	if races[0].A.Proc == races[0].B.Proc {
		t.Error("race must involve two processors")
	}
}

func TestSyncOnDifferentLocationsDoesNotOrder(t *testing.T) {
	// Synchronizing on different locations creates no so edge: the data
	// accesses race.
	e := &mem.Execution{
		Procs: 2,
		Ops: []mem.Op{
			{Proc: 0, Index: 0, Kind: mem.Write, Addr: 0},
			{Proc: 0, Index: 1, Kind: mem.SyncRMW, Addr: 5},
			{Proc: 1, Index: 0, Kind: mem.SyncRMW, Addr: 6},
			{Proc: 1, Index: 1, Kind: mem.Read, Addr: 0},
		},
	}
	g := Build(e, SyncAll)
	if len(g.Races()) != 1 {
		t.Fatalf("races = %v, want 1 (x unordered)", g.Races())
	}
}

func TestFigure2aObeysDRF0(t *testing.T) {
	e := litmus.Figure2a()
	g := BuildAugmented(e, nil, SyncAll)
	if err := g.CheckStrictPartialOrder(); err != nil {
		t.Fatal(err)
	}
	if races := RealRaces(g.Races()); len(races) != 0 {
		t.Errorf("Figure 2(a) must obey DRF0; races: %v", races)
	}
}

func TestFigure2aValueCondition(t *testing.T) {
	e := litmus.Figure2a()
	g := BuildAugmented(e, nil, SyncAll)
	if err := g.CheckReadsSeeLastWrite(nil); err != nil {
		t.Errorf("Figure 2(a) reads must see hb-last writes: %v", err)
	}
}

func TestFigure2bViolatesDRF0(t *testing.T) {
	e := litmus.Figure2b()
	g := BuildAugmented(e, nil, SyncAll)
	races := RealRaces(g.Races())
	if len(races) == 0 {
		t.Fatal("Figure 2(b) must contain races")
	}
	// The paper calls out two families: P0's accesses vs P1's W(y), and
	// P2's W(z) vs P4's W(z).
	var sawP0P1, sawP2P4 bool
	for _, r := range races {
		procs := map[int]bool{r.A.Proc: true, r.B.Proc: true}
		if procs[0] && procs[1] && r.A.Addr == litmus.Fig2Y {
			sawP0P1 = true
		}
		if procs[2] && procs[4] && r.A.Addr == litmus.Fig2Z {
			sawP2P4 = true
		}
	}
	if !sawP0P1 {
		t.Error("missing the P0/P1 race on y")
	}
	if !sawP2P4 {
		t.Error("missing the P2/P4 race on z")
	}
	// P3 is ordered after P2 through the synchronization on t: the
	// P2.W(z)/P3.R(z) pair must NOT be reported.
	for _, r := range races {
		procs := map[int]bool{r.A.Proc: true, r.B.Proc: true}
		if procs[2] && procs[3] {
			t.Errorf("P2/P3 are sync-ordered and must not race: %v", r)
		}
	}
}

func TestAugmentOrdersInitialAndFinalState(t *testing.T) {
	// A single write by P0 with no other accesses: augmentation must order
	// the init write before it and it before the final read.
	e := &mem.Execution{
		Procs: 1,
		Ops:   []mem.Op{{Proc: 0, Index: 0, Kind: mem.Write, Addr: 0, Data: 3}},
		Final: map[mem.Addr]mem.Value{0: 3},
	}
	aug := Augment(e, nil)
	g := Build(aug, SyncAll)
	if races := g.Races(); len(races) != 0 {
		t.Errorf("augmented single-writer execution must be race-free, got %v", races)
	}
	// Init write position precedes the real write, which precedes the
	// final read.
	var initW, realW, finalR = -1, -1, -1
	for i, op := range aug.Ops {
		switch {
		case op.Proc == mem.InitProc && op.Kind == mem.Write && op.Addr == 0:
			initW = i
		case op.Proc == 0 && op.Kind == mem.Write:
			realW = i
		case op.Proc == mem.FinalProc && op.Kind == mem.Read && op.Addr == 0:
			finalR = i
		}
	}
	if initW < 0 || realW < 0 || finalR < 0 {
		t.Fatal("augmentation missing expected operations")
	}
	if !g.HappensBefore(initW, realW) {
		t.Error("init write must happen-before the real write")
	}
	if !g.HappensBefore(realW, finalR) {
		t.Error("real write must happen-before the final read")
	}
}

func TestAugmentExposesRaceWithUnwrittenReader(t *testing.T) {
	// P0 writes x while P1 reads x with no synchronization: race both via
	// direct conflict; augmentation must not hide it.
	e := &mem.Execution{
		Procs: 2,
		Ops: []mem.Op{
			{Proc: 1, Index: 0, Kind: mem.Read, Addr: 0, Got: 0},
			{Proc: 0, Index: 0, Kind: mem.Write, Addr: 0, Data: 1},
		},
		Final: map[mem.Addr]mem.Value{0: 1},
	}
	g := BuildAugmented(e, nil, SyncAll)
	if races := RealRaces(g.Races()); len(races) != 1 {
		t.Errorf("races = %v, want exactly the W/R race", races)
	}
}

func TestWriterOrderedModeDropsReadOnlyEdges(t *testing.T) {
	// P0: W(y); SR(s).  P1: SR(s); R(y).
	// Under DRF0 proper (SyncAll), P0's read-only sync op orders its
	// earlier write for P1: W(y) po SR(P0,s) so SR(P1,s) po R(y).
	// Under the Section 6 refinement a read-only synchronization
	// operation cannot order the issuer's previous accesses, so the
	// W(y)/R(y) pair becomes a race.
	e := &mem.Execution{
		Procs: 2,
		Ops: []mem.Op{
			{Proc: 0, Index: 0, Kind: mem.Write, Addr: 1},    // W(y)
			{Proc: 0, Index: 1, Kind: mem.SyncRead, Addr: 5}, // SR(s)
			{Proc: 1, Index: 0, Kind: mem.SyncRead, Addr: 5}, // SR(s)
			{Proc: 1, Index: 1, Kind: mem.Read, Addr: 1},     // R(y)
		},
	}
	wY, rY := 0, 3

	gAll := Build(e, SyncAll)
	if !gAll.HappensBefore(wY, rY) {
		t.Error("under DRF0 proper, consecutive sync ops order regardless of kind")
	}
	if races := gAll.Races(); len(races) != 0 {
		t.Errorf("no races expected under SyncAll: %v", races)
	}

	g := Build(e, SyncWriterOrdered)
	if g.HappensBefore(wY, rY) {
		t.Error("a read-only sync op must not order the issuer's earlier write")
	}
	if races := g.Races(); len(races) != 1 {
		t.Errorf("races = %v, want exactly the W(y)/R(y) pair", races)
	}

	// Replacing P0's Test with a releasing sync write restores ordering
	// even under the refinement.
	e2 := &mem.Execution{
		Procs: 2,
		Ops: []mem.Op{
			{Proc: 0, Index: 0, Kind: mem.Write, Addr: 1},
			{Proc: 0, Index: 1, Kind: mem.SyncWrite, Addr: 5},
			{Proc: 1, Index: 0, Kind: mem.SyncRead, Addr: 5},
			{Proc: 1, Index: 1, Kind: mem.Read, Addr: 1},
		},
	}
	g2 := Build(e2, SyncWriterOrdered)
	if !g2.HappensBefore(0, 3) {
		t.Error("a writing sync op must order the issuer's earlier write under the refinement")
	}
}

func TestWriterOrderedSyncSyncExempt(t *testing.T) {
	// SR and SW on the same location, unordered: conflicting sync pair is
	// exempt under the refinement, a race under DRF0 proper... under
	// SyncAll they are so-ordered anyway, so only the refined mode is
	// interesting: no race either way.
	e := &mem.Execution{
		Procs: 2,
		Ops: []mem.Op{
			{Proc: 0, Index: 0, Kind: mem.SyncRead, Addr: 5},
			{Proc: 1, Index: 0, Kind: mem.SyncWrite, Addr: 5},
		},
	}
	if races := Build(e, SyncWriterOrdered).Races(); len(races) != 0 {
		t.Errorf("sync-sync pair must be exempt under the refinement: %v", races)
	}
	if races := Build(e, SyncAll).Races(); len(races) != 0 {
		t.Errorf("sync-sync pair is so-ordered under DRF0: %v", races)
	}
}

func TestHBOnEnumeratedDekkerExecutions(t *testing.T) {
	// Every SC execution of racy Dekker has a race; every SC execution of
	// DekkerSync does not.
	check := func(name string, prog interface {
		Validate() error
	}, wantRace bool) {
	}
	_ = check

	for _, tc := range []struct {
		name     string
		wantRace bool
	}{
		{"dekker", true},
		{"dekker-sync", false},
	} {
		var prog = litmus.Dekker()
		if tc.name == "dekker-sync" {
			prog = litmus.DekkerSync()
		}
		_, err := ideal.Enumerate(prog, ideal.EnumConfig{}, func(it *ideal.Interp) error {
			g := BuildAugmented(it.Execution(), prog.Init, SyncAll)
			got := len(RealRaces(g.Races())) > 0
			if got != tc.wantRace {
				t.Errorf("%s: race=%v, want %v", tc.name, got, tc.wantRace)
				return ideal.ErrStop
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestHBIsStrictPartialOrderOnEnumeratedExecutions(t *testing.T) {
	for _, prog := range litmus.All() {
		cfg := ideal.EnumConfig{
			Interp:        ideal.Config{MaxMemOpsPerThread: 10},
			MaxPaths:      200_000,
			SkipTruncated: true,
		}
		n := 0
		_, err := ideal.Enumerate(prog, cfg, func(it *ideal.Interp) error {
			n++
			if n > 50 { // sample a few executions per program
				return ideal.ErrStop
			}
			g := BuildAugmented(it.Execution(), prog.Init, SyncAll)
			if err := g.CheckStrictPartialOrder(); err != nil {
				t.Errorf("%s: %v", prog.Name, err)
				return ideal.ErrStop
			}
			return nil
		})
		if err != nil && err != ideal.ErrBudget {
			t.Fatalf("%s: %v", prog.Name, err)
		}
	}
}

func TestFindOpHelper(t *testing.T) {
	e := litmus.Figure2a()
	if i := findOp(t, e, 0, 0); e.Ops[i].Proc != 0 || e.Ops[i].Index != 0 {
		t.Error("findOp returned wrong op")
	}
}
