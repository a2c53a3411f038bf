package program

import (
	"strings"
	"testing"

	"weakorder/internal/mem"
)

func TestBuilderVarAllocation(t *testing.T) {
	b := NewBuilder("t")
	x := b.Var("x")
	y := b.Var("y")
	if x == y {
		t.Fatal("distinct names must get distinct addresses")
	}
	if again := b.Var("x"); again != x {
		t.Fatal("repeated Var must return the same address")
	}
	z := b.VarAt("z", 10)
	if z != 10 {
		t.Fatalf("VarAt returned %d, want 10", z)
	}
	if next := b.Var("w"); next != 11 {
		t.Fatalf("allocation after VarAt returned %d, want 11", next)
	}
}

func TestBuilderVarAtConflict(t *testing.T) {
	b := NewBuilder("t")
	b.Var("x") // address 0
	b.VarAt("x", 5)
	b.Thread().Nop()
	if _, err := b.Build(); err == nil {
		t.Fatal("rebinding a symbol to a different address must fail Build")
	}
}

func TestBuildSimpleProgram(t *testing.T) {
	b := NewBuilder("simple")
	x := b.Var("x")
	b.InitVar("x", 5)
	th := b.Thread()
	th.Load(R0, x)
	th.AddImm(R1, R0, 1)
	th.Store(x, R1)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumThreads() != 1 {
		t.Fatalf("NumThreads = %d, want 1", p.NumThreads())
	}
	if got := p.Init[x]; got != 5 {
		t.Fatalf("Init[x] = %d, want 5", got)
	}
	if got := p.Threads[0].MemOps(); got != 2 {
		t.Fatalf("MemOps = %d, want 2", got)
	}
	if a, ok := p.AddrOf("x"); !ok || a != x {
		t.Fatalf("AddrOf(x) = %d,%v", a, ok)
	}
	if sym := p.SymbolFor(x); sym != "x" {
		t.Fatalf("SymbolFor = %q, want x", sym)
	}
}

func TestLabelsResolve(t *testing.T) {
	b := NewBuilder("loop")
	x := b.Var("x")
	th := b.Thread()
	th.LoadImm(R0, 3)
	th.Label("top")
	th.Store(x, R0)
	th.AddImm(R0, R0, -1)
	th.BneImm(R0, 0, "top")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	branch := p.Threads[0].Instrs[3]
	if branch.Op != OpBne || branch.Target != 1 {
		t.Fatalf("branch = %+v, want OpBne target 1", branch)
	}
}

func TestForwardLabel(t *testing.T) {
	b := NewBuilder("fwd")
	th := b.Thread()
	th.LoadImm(R0, 1)
	th.BeqImm(R0, 1, "end")
	th.LoadImm(R0, 2)
	th.Label("end")
	th.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Threads[0].Instrs[1].Target; got != 3 {
		t.Fatalf("forward branch target = %d, want 3", got)
	}
}

func TestUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Thread().Jmp("nowhere")
	if _, err := b.Build(); err == nil {
		t.Fatal("undefined label must fail Build")
	}
}

func TestDuplicateLabel(t *testing.T) {
	b := NewBuilder("bad")
	th := b.Thread()
	th.Label("a")
	th.Nop()
	th.Label("a")
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate label must fail Build")
	}
}

func TestValidateRejectsEmptyProgram(t *testing.T) {
	p := &Program{Name: "empty"}
	if err := p.Validate(); err == nil {
		t.Fatal("empty program must fail validation")
	}
}

func TestValidateRejectsBadBranchTarget(t *testing.T) {
	p := &Program{
		Name:    "bad",
		Threads: []Thread{{Name: "P0", Instrs: []Instr{{Op: OpJmp, Target: 5}}}},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range branch target must fail validation")
	}
}

func TestOpcodeMemKind(t *testing.T) {
	cases := map[Opcode]mem.Kind{
		OpLoad:      mem.Read,
		OpStore:     mem.Write,
		OpSyncLoad:  mem.SyncRead,
		OpSyncStore: mem.SyncWrite,
		OpTAS:       mem.SyncRMW,
		OpSwap:      mem.SyncRMW,
	}
	for op, want := range cases {
		if got := op.MemKind(); got != want {
			t.Errorf("%v.MemKind() = %v, want %v", op, got, want)
		}
		if !op.IsMemory() {
			t.Errorf("%v.IsMemory() = false", op)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MemKind on a non-memory opcode must panic")
		}
	}()
	OpAdd.MemKind()
}

func TestAddressesAndSyncAddresses(t *testing.T) {
	b := NewBuilder("addrs")
	x, s := b.Var("x"), b.Var("s")
	b.InitVar("extra", 1)
	th := b.Thread()
	th.Store(x, R0)
	th.TAS(R1, s)
	p := b.MustBuild()

	addrs := p.Addresses()
	if len(addrs) != 3 {
		t.Fatalf("Addresses = %v, want 3 entries", addrs)
	}
	sync := p.SyncAddresses()
	if len(sync) != 1 || sync[0] != s {
		t.Fatalf("SyncAddresses = %v, want [%d]", sync, s)
	}
}

func TestDisassembly(t *testing.T) {
	b := NewBuilder("dis")
	x := b.Var("x")
	th := b.Thread()
	th.StoreImm(x, 7)
	th.Load(R2, x)
	th.TAS(R0, x)
	p := b.MustBuild()
	text := p.String()
	for _, want := range []string{"st x, #7", "ld r2, x", "tas r0, x"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func TestFenceInstruction(t *testing.T) {
	b := NewBuilder("f")
	th := b.Thread()
	th.StoreImm(b.Var("x"), 1)
	th.Fence()
	p := b.MustBuild()
	in := p.Threads[0].Instrs[1]
	if in.Op != OpFence || in.Op.IsMemory() || in.Op.IsBranch() {
		t.Fatalf("fence instr misclassified: %+v", in)
	}
	if in.String() != "fence" {
		t.Errorf("fence disassembly = %q", in.String())
	}
}

func TestThreadNaming(t *testing.T) {
	b := NewBuilder("names")
	b.Thread().Nop()
	b.NamedThread("writer").Nop()
	p := b.MustBuild()
	if p.Threads[0].Name != "P0" || p.Threads[1].Name != "writer" {
		t.Fatalf("thread names = %q, %q", p.Threads[0].Name, p.Threads[1].Name)
	}
}

// TestExecLocalAndWriteValue pins the shared instruction semantics the
// interpreter, the processor and the saturation replay all run.
func TestExecLocalAndWriteValue(t *testing.T) {
	var regs RegFile
	regs[R1], regs[R2] = 5, 7
	for _, tc := range []struct {
		in     Instr
		pc     int
		next   int
		halted bool
	}{
		{Instr{Op: OpAdd, Rd: R3, Rs: R1, Rt: R2}, 0, 1, false},
		{Instr{Op: OpFence}, 1, 2, false},
		{Instr{Op: OpBlt, Rs: R1, Rt: R2, Target: 9}, 2, 9, false},
		{Instr{Op: OpBeq, Rs: R3, UseImm: true, Imm: 11, Target: 9}, 3, 4, false},
		{Instr{Op: OpHalt}, 4, 4, true},
	} {
		next, halted := tc.in.ExecLocal(&regs, tc.pc)
		if next != tc.next || halted != tc.halted {
			t.Errorf("%v at %d: (%d, %v), want (%d, %v)", tc.in, tc.pc, next, halted, tc.next, tc.halted)
		}
	}
	if regs[R3] != 12 {
		t.Errorf("add: r3 = %d, want 12", regs[R3])
	}
	for _, tc := range []struct {
		in   Instr
		want mem.Value
	}{
		{Instr{Op: OpTAS, Rd: R1}, 1},
		{Instr{Op: OpSwap, Rd: R1, Rs: R1}, 5}, // the old r1, before the read lands
		{Instr{Op: OpStore, UseImm: true, Imm: 3}, 3},
		{Instr{Op: OpSyncStore, Rs: R2}, 7},
		{Instr{Op: OpLoad, Rd: R2}, 0},
	} {
		if got := tc.in.WriteValue(&regs); got != tc.want {
			t.Errorf("WriteValue(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ExecLocal on a memory opcode must panic")
		}
	}()
	Instr{Op: OpLoad}.ExecLocal(&regs, 0)
}
