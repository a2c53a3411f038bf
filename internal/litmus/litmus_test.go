package litmus

import (
	"testing"

	"weakorder/internal/mem"
	"weakorder/internal/program"
)

func TestAllProgramsValidate(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestDekkerShape(t *testing.T) {
	p := Dekker()
	if p.NumThreads() != 2 {
		t.Fatalf("threads = %d, want 2", p.NumThreads())
	}
	if n := len(p.SyncAddresses()); n != 0 {
		t.Errorf("Dekker must have no sync addresses, got %d", n)
	}
	if n := len(DekkerSync().SyncAddresses()); n != 2 {
		t.Errorf("DekkerSync must sync on both locations, got %d", n)
	}
}

func TestDekkerForbiddenPredicate(t *testing.T) {
	mk := func(a, b mem.Value) mem.Result {
		return mem.NewResult([]mem.ReadObservation{
			{ID: mem.OpID{Proc: 0, Index: 1}, Value: a},
			{ID: mem.OpID{Proc: 1, Index: 1}, Value: b},
		}, nil)
	}
	if !DekkerForbidden(mk(0, 0)) {
		t.Error("(0,0) must be forbidden")
	}
	for _, rv := range [][2]mem.Value{{0, 1}, {1, 0}, {1, 1}} {
		if DekkerForbidden(mk(rv[0], rv[1])) {
			t.Errorf("(%d,%d) must be allowed", rv[0], rv[1])
		}
	}
	if DekkerForbidden(mem.Result{}) {
		t.Error("missing reads must not be forbidden")
	}
}

func TestCriticalSectionShape(t *testing.T) {
	p := CriticalSection(3, 2)
	if p.NumThreads() != 3 {
		t.Fatalf("threads = %d", p.NumThreads())
	}
	lock, ok := p.AddrOf("lock")
	if !ok {
		t.Fatal("no lock symbol")
	}
	sync := p.SyncAddresses()
	if len(sync) != 1 || sync[0] != lock {
		t.Fatalf("sync addrs %v, want [lock]", sync)
	}
	// Each thread: per round TAS + counter load + counter store + unset
	// = 4 static memory instructions; 2 rounds = 8.
	if got := p.Threads[0].MemOps(); got != 8 {
		t.Errorf("mem ops per thread = %d, want 8", got)
	}
}

func TestBarrierShape(t *testing.T) {
	p := Barrier(4)
	if p.NumThreads() != 4 {
		t.Fatalf("threads = %d", p.NumThreads())
	}
	// go + arrive0..3 are sync locations.
	if got := len(p.SyncAddresses()); got != 5 {
		t.Errorf("sync addresses = %d, want 5", got)
	}
}

func TestFigure2ExecutionsWellFormed(t *testing.T) {
	for _, e := range []*mem.Execution{Figure2a(), Figure2b()} {
		seen := make(map[mem.OpID]bool)
		perProc := make(map[int]int)
		for _, op := range e.Ops {
			id := op.ID()
			if seen[id] {
				t.Errorf("duplicate op id %v", id)
			}
			seen[id] = true
			if op.Index != perProc[op.Proc] {
				t.Errorf("P%d indexes not dense: got %d want %d", op.Proc, op.Index, perProc[op.Proc])
			}
			perProc[op.Proc]++
		}
	}
}

func TestFigure3ObservesRelease(t *testing.T) {
	p := Figure3()
	if _, ok := p.AddrOf("s"); !ok {
		t.Fatal("no s symbol")
	}
	if got := p.Init[mustAddr(t, p, "s")]; got != 1 {
		t.Errorf("s initial = %d, want 1 (held)", got)
	}
}

func mustAddr(t *testing.T, p *program.Program, name string) mem.Addr {
	t.Helper()
	a, ok := p.AddrOf(name)
	if !ok {
		t.Fatalf("no symbol %q", name)
	}
	return a
}

func TestFigure3ReadOfXIndex(t *testing.T) {
	// With zero failed spins and work w, the read of x is P1's
	// (2 + 1 + w)-th operation.
	id := Figure3ReadOfX(0, 3)
	if id.Proc != 1 || id.Index != 6 {
		t.Errorf("Figure3ReadOfX(0,3) = %v, want P1.6", id)
	}
}

func TestTestAndTASUsesReadOnlyTest(t *testing.T) {
	p := TestAndTAS(2, 1)
	foundTest := false
	for _, in := range p.Threads[0].Instrs {
		if in.Op == program.OpSyncLoad {
			foundTest = true
		}
	}
	if !foundTest {
		t.Error("Test&TAS must spin with a read-only sync Test")
	}
}

func TestRacyCounterHasNoSync(t *testing.T) {
	if n := len(RacyCounter(2, 2).SyncAddresses()); n != 0 {
		t.Errorf("racy counter has %d sync addresses, want 0", n)
	}
}
