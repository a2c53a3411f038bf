package program

import (
	"slices"
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

// TestRunLocalBound: a register-only run may take MaxLocalSteps
// instructions; its next local instruction fails it with ErrLocalLoop,
// unexecuted. The count restarts at every memory instruction.
func TestRunLocalBound(t *testing.T) {
	nops := func(n int, then func(*ThreadBuilder)) *Thread {
		b := NewBuilder("nops")
		th := b.Thread()
		for i := 0; i < n; i++ {
			th.Nop()
		}
		then(th)
		return &b.MustBuild().Threads[0]
	}
	x := mem.Addr(0)
	store := func(th *ThreadBuilder) { th.StoreImm(x, 1) }
	for _, tc := range []struct {
		name   string
		th     *Thread
		next   int
		halted bool
		err    error
	}{
		{"bound then store", nops(MaxLocalSteps, store), MaxLocalSteps, false, nil},
		{"bound then end", nops(MaxLocalSteps, func(*ThreadBuilder) {}), MaxLocalSteps, true, nil},
		{"over then store", nops(MaxLocalSteps+1, store), MaxLocalSteps, false, ErrLocalLoop},
		{"bound then halt", nops(MaxLocalSteps, func(th *ThreadBuilder) { th.Halt() }), MaxLocalSteps, false, ErrLocalLoop},
		{"under then halt", nops(MaxLocalSteps-1, func(th *ThreadBuilder) { th.Halt() }), MaxLocalSteps - 1, true, nil},
	} {
		var regs RegFile
		next, halted, err := tc.th.RunLocal(&regs, 0)
		if next != tc.next || halted != tc.halted || err != tc.err {
			t.Errorf("%s: (%d, %v, %v), want (%d, %v, %v)", tc.name, next, halted, err, tc.next, tc.halted, tc.err)
		}
	}
	// Two bound-long runs separated by a store.
	b := NewBuilder("two-runs")
	th := b.Thread()
	for run := 0; run < 2; run++ {
		for i := 0; i < MaxLocalSteps; i++ {
			th.AddImm(R1, R1, 1)
		}
		th.StoreImm(x, 1)
	}
	two := &b.MustBuild().Threads[0]
	var regs RegFile
	pc, halted, err := two.RunLocal(&regs, 0)
	if pc != MaxLocalSteps || halted || err != nil {
		t.Fatalf("first run: (%d, %v, %v)", pc, halted, err)
	}
	if pc, halted, err = two.RunLocal(&regs, pc+1); pc != 2*MaxLocalSteps+1 || halted || err != nil || regs[R1] != 2*MaxLocalSteps {
		t.Errorf("second run: (%d, %v, %v), r1 = %d", pc, halted, err, regs[R1])
	}
	if got := ErrLocalLoop.Error(); got != "exceeded 10000 local steps (infinite local loop?)" {
		t.Errorf("ErrLocalLoop = %q", got)
	}
}

// TestRegisterFacts: ReadRegs lists what an instruction's semantics
// read, in order, and LocalDest what a register-only instruction
// writes.
func TestRegisterFacts(t *testing.T) {
	for _, tc := range []struct {
		in    Instr
		reads []Reg
		dest  Reg
		dests bool
	}{
		{Instr{Op: OpAdd, Rd: R1, Rs: R2, Rt: R3}, []Reg{R2, R3}, R1, true},
		{Instr{Op: OpSub, Rd: R1, Rs: R3, Rt: R2}, []Reg{R3, R2}, R1, true},
		{Instr{Op: OpAddImm, Rd: R1, Rs: R4}, []Reg{R4}, R1, true},
		{Instr{Op: OpMov, Rd: R5, Rs: R6}, []Reg{R6}, R5, true},
		{Instr{Op: OpLoadImm, Rd: R7}, nil, R7, true},
		{Instr{Op: OpBne, Rs: R1, Rt: R2}, []Reg{R1, R2}, 0, false},
		{Instr{Op: OpBge, Rs: R1, Rt: R2, UseImm: true}, []Reg{R1}, 0, false},
		{Instr{Op: OpJmp, Rs: R1}, nil, 0, false},
		{Instr{Op: OpStore, Rs: R3}, []Reg{R3}, 0, false},
		{Instr{Op: OpSyncStore, Rs: R3, UseImm: true}, nil, 0, false},
		{Instr{Op: OpSwap, Rd: R1, Rs: R2}, []Reg{R2}, 0, false},
		{Instr{Op: OpTAS, Rd: R1}, nil, 0, false},
		{Instr{Op: OpLoad, Rd: R1}, nil, 0, false},
		{Instr{Op: OpFence}, nil, 0, false},
	} {
		regs, n := tc.in.ReadRegs()
		if !slices.Equal(regs[:n], tc.reads) {
			t.Errorf("%v: reads %v, want %v", tc.in, regs[:n], tc.reads)
		}
		if rd, ok := tc.in.LocalDest(); rd != tc.dest || ok != tc.dests {
			t.Errorf("%v: LocalDest = (%v, %v), want (%v, %v)", tc.in, rd, ok, tc.dest, tc.dests)
		}
	}
}
