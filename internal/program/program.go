// Package program defines the intermediate representation for the small
// parallel programs that run on both the idealized architecture and the
// hardware simulator: a handful of integer registers per thread, loads,
// stores, arithmetic, conditional branches, and the hardware-recognizable
// synchronization operations that DRF0 requires (Test, Set/Unset,
// TestAndSet and general atomic swaps).
//
// Programs are built either with the fluent ThreadBuilder API in this
// package or parsed from the litmus text format in package lang.
package program

import (
	"fmt"
	"sort"
	"strings"

	"weakorder/internal/mem"
)

// Reg names one of a thread's general-purpose registers.
type Reg uint8

// NumRegs is the number of general-purpose registers per thread.
const NumRegs = 16

// Convenient register names.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
)

// String formats the register like "r3".
func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Opcode enumerates the instruction set.
type Opcode uint8

// Instruction opcodes. Memory opcodes map one-to-one onto mem.Kind:
// OpLoad -> Read, OpStore -> Write, OpSyncLoad -> SyncRead,
// OpSyncStore -> SyncWrite, OpTAS/OpSwap -> SyncRMW.
const (
	// OpNop does nothing.
	OpNop Opcode = iota
	// OpLoadImm sets Rd to Imm.
	OpLoadImm
	// OpMov copies Rs into Rd.
	OpMov
	// OpAdd sets Rd to Rs + Rt.
	OpAdd
	// OpAddImm sets Rd to Rs + Imm.
	OpAddImm
	// OpSub sets Rd to Rs - Rt.
	OpSub
	// OpLoad performs a data read of Addr into Rd.
	OpLoad
	// OpStore performs a data write of Rs (or Imm when UseImm) to Addr.
	OpStore
	// OpSyncLoad performs a read-only synchronization operation (Test),
	// reading Addr into Rd.
	OpSyncLoad
	// OpSyncStore performs a write-only synchronization operation
	// (Set/Unset), writing Rs (or Imm when UseImm) to Addr.
	OpSyncStore
	// OpTAS performs a TestAndSet: atomically reads Addr into Rd and
	// writes 1.
	OpTAS
	// OpSwap performs a general atomic read-modify-write: atomically reads
	// Addr into Rd and writes Rs (or Imm when UseImm).
	OpSwap
	// OpBeq branches to Target when Rs == Rt (or Rs == Imm when UseImm).
	OpBeq
	// OpBne branches to Target when Rs != Rt (or Rs != Imm when UseImm).
	OpBne
	// OpBlt branches to Target when Rs < Rt (or Rs < Imm when UseImm).
	OpBlt
	// OpBge branches to Target when Rs >= Rt (or Rs >= Imm when UseImm).
	OpBge
	// OpJmp branches unconditionally to Target.
	OpJmp
	// OpHalt terminates the thread.
	OpHalt
	// OpFence is an RP3-style fence: the processor waits until all its
	// previous accesses are globally performed before proceeding. It is
	// not a memory operation (it accesses no location) and does not
	// participate in DRF0's synchronization order; it constrains only the
	// issuing processor's hardware. On the idealized architecture it is a
	// no-op.
	OpFence
)

var opcodeNames = map[Opcode]string{
	OpNop:       "nop",
	OpLoadImm:   "li",
	OpMov:       "mov",
	OpAdd:       "add",
	OpAddImm:    "addi",
	OpSub:       "sub",
	OpLoad:      "ld",
	OpStore:     "st",
	OpSyncLoad:  "sld",
	OpSyncStore: "sst",
	OpTAS:       "tas",
	OpSwap:      "swap",
	OpBeq:       "beq",
	OpBne:       "bne",
	OpBlt:       "blt",
	OpBge:       "bge",
	OpJmp:       "jmp",
	OpHalt:      "halt",
	OpFence:     "fence",
}

// String returns the assembler mnemonic.
func (o Opcode) String() string {
	if s, ok := opcodeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// IsMemory reports whether the opcode accesses shared memory.
func (o Opcode) IsMemory() bool {
	switch o {
	case OpLoad, OpStore, OpSyncLoad, OpSyncStore, OpTAS, OpSwap:
		return true
	}
	return false
}

// IsBranch reports whether the opcode may transfer control.
func (o Opcode) IsBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge, OpJmp:
		return true
	}
	return false
}

// MemKind returns the mem.Kind corresponding to a memory opcode. It panics
// on non-memory opcodes.
func (o Opcode) MemKind() mem.Kind {
	switch o {
	case OpLoad:
		return mem.Read
	case OpStore:
		return mem.Write
	case OpSyncLoad:
		return mem.SyncRead
	case OpSyncStore:
		return mem.SyncWrite
	case OpTAS, OpSwap:
		return mem.SyncRMW
	default:
		panic(fmt.Sprintf("program: opcode %v is not a memory operation", o))
	}
}

// Instr is one decoded instruction.
type Instr struct {
	Op     Opcode
	Rd     Reg       // destination register
	Rs     Reg       // first source register
	Rt     Reg       // second source register
	Imm    mem.Value // immediate operand (when UseImm, or for OpLoadImm/OpAddImm)
	UseImm bool      // second operand / store value is Imm rather than a register
	Addr   mem.Addr  // memory address for memory opcodes
	Sym    string    // symbol name of Addr, for diagnostics
	Target int       // branch target: instruction index within the thread
}

// ExecLocal executes a register-only instruction against regs and
// returns the next pc, or halted when the instruction is OpHalt. It is
// the one definition of local semantics shared by the idealized
// interpreter, the simulated processor and the saturation replay. Fences
// are no-ops here: ordering is the caller's concern. It panics on memory
// opcodes.
func (in Instr) ExecLocal(regs *RegFile, pc int) (next int, halted bool) {
	taken := false
	switch in.Op {
	case OpNop, OpFence:
	case OpLoadImm:
		regs[in.Rd] = in.Imm
	case OpMov:
		regs[in.Rd] = regs[in.Rs]
	case OpAdd:
		regs[in.Rd] = regs[in.Rs] + regs[in.Rt]
	case OpAddImm:
		regs[in.Rd] = regs[in.Rs] + in.Imm
	case OpSub:
		regs[in.Rd] = regs[in.Rs] - regs[in.Rt]
	case OpBeq:
		taken = regs[in.Rs] == in.operand2(regs)
	case OpBne:
		taken = regs[in.Rs] != in.operand2(regs)
	case OpBlt:
		taken = regs[in.Rs] < in.operand2(regs)
	case OpBge:
		taken = regs[in.Rs] >= in.operand2(regs)
	case OpJmp:
		taken = true
	case OpHalt:
		return pc, true
	default:
		panic(fmt.Sprintf("program: ExecLocal on non-local opcode %v", in.Op))
	}
	if taken {
		return in.Target, false
	}
	return pc + 1, false
}

// WriteValue is the value a memory instruction writes, computed from
// regs before any read component updates Rd (so swap rN, x, rN writes
// rN's old contents): 1 for OpTAS, Imm or Rs for stores and swaps, and 0
// for reads.
func (in Instr) WriteValue(regs *RegFile) mem.Value {
	switch in.Op {
	case OpTAS:
		return 1
	case OpStore, OpSyncStore, OpSwap:
		if in.UseImm {
			return in.Imm
		}
		return regs[in.Rs]
	}
	return 0
}

// operand2 is a branch's second comparand: Imm when UseImm, else Rt.
func (in Instr) operand2(regs *RegFile) mem.Value {
	if in.UseImm {
		return in.Imm
	}
	return regs[in.Rt]
}

// String disassembles the instruction.
func (in Instr) String() string {
	loc := in.Sym
	if loc == "" {
		loc = fmt.Sprintf("[%d]", in.Addr)
	}
	src := in.Rt.String()
	if in.UseImm {
		src = fmt.Sprintf("#%d", in.Imm)
	}
	switch in.Op {
	case OpNop, OpHalt, OpFence:
		return in.Op.String()
	case OpLoadImm:
		return fmt.Sprintf("li %v, #%d", in.Rd, in.Imm)
	case OpMov:
		return fmt.Sprintf("mov %v, %v", in.Rd, in.Rs)
	case OpAdd, OpSub:
		return fmt.Sprintf("%v %v, %v, %v", in.Op, in.Rd, in.Rs, in.Rt)
	case OpAddImm:
		return fmt.Sprintf("addi %v, %v, #%d", in.Rd, in.Rs, in.Imm)
	case OpLoad, OpSyncLoad:
		return fmt.Sprintf("%v %v, %s", in.Op, in.Rd, loc)
	case OpStore, OpSyncStore:
		return fmt.Sprintf("%v %s, %s", in.Op, loc, src)
	case OpTAS:
		return fmt.Sprintf("tas %v, %s", in.Rd, loc)
	case OpSwap:
		return fmt.Sprintf("swap %v, %s, %s", in.Rd, loc, src)
	case OpBeq, OpBne, OpBlt, OpBge:
		return fmt.Sprintf("%v %v, %s, @%d", in.Op, in.Rs, src, in.Target)
	case OpJmp:
		return fmt.Sprintf("jmp @%d", in.Target)
	default:
		return in.Op.String()
	}
}

// Thread is one sequential instruction stream.
type Thread struct {
	// Name identifies the thread ("P0", "P1", ...).
	Name string
	// Instrs is the instruction sequence; control starts at index 0 and
	// the thread terminates on OpHalt or by running off the end.
	Instrs []Instr
}

// MemOps counts the static memory instructions in the thread.
func (t *Thread) MemOps() int {
	n := 0
	for _, in := range t.Instrs {
		if in.Op.IsMemory() {
			n++
		}
	}
	return n
}

// String disassembles the thread.
func (t *Thread) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", t.Name)
	for i, in := range t.Instrs {
		fmt.Fprintf(&b, "  %3d  %s\n", i, in.String())
	}
	return b.String()
}

// Program is a complete multi-threaded program plus initial memory state
// and the symbol table mapping variable names to addresses.
type Program struct {
	// Name labels the program in reports.
	Name string
	// Threads holds one instruction stream per processor; thread i runs on
	// processor i.
	Threads []Thread
	// Init gives non-zero initial memory contents.
	Init map[mem.Addr]mem.Value
	// Symbols maps variable names to their addresses.
	Symbols map[string]mem.Addr
	// Cond is an optional litmus postcondition ("exists ..."), naming the
	// outcome of interest.
	Cond *Cond
}

// NumThreads returns the number of threads.
func (p *Program) NumThreads() int { return len(p.Threads) }

// AddrOf resolves a symbol name; ok is false when the symbol is unknown.
func (p *Program) AddrOf(name string) (mem.Addr, bool) {
	a, ok := p.Symbols[name]
	return a, ok
}

// SymbolFor returns the name mapped to an address, or "" if none.
func (p *Program) SymbolFor(a mem.Addr) string {
	for name, addr := range p.Symbols {
		if addr == a {
			return name
		}
	}
	return ""
}

// Addresses returns the sorted set of addresses the program can touch:
// every address named by a memory instruction plus every initialized
// address.
func (p *Program) Addresses() []mem.Addr {
	set := make(map[mem.Addr]bool)
	for _, t := range p.Threads {
		for _, in := range t.Instrs {
			if in.Op.IsMemory() {
				set[in.Addr] = true
			}
		}
	}
	for a := range p.Init {
		set[a] = true
	}
	if p.Cond != nil {
		for _, term := range p.Cond.Terms {
			if term.Thread < 0 {
				set[term.Addr] = true
			}
		}
	}
	out := make([]mem.Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SyncAddresses returns the sorted set of addresses accessed by at least
// one synchronization operation.
func (p *Program) SyncAddresses() []mem.Addr {
	set := make(map[mem.Addr]bool)
	for _, t := range p.Threads {
		for _, in := range t.Instrs {
			if in.Op.IsMemory() && in.Op.MemKind().IsSync() {
				set[in.Addr] = true
			}
		}
	}
	out := make([]mem.Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks structural well-formedness: register numbers in range,
// branch targets within the thread, memory opcodes carrying addresses.
func (p *Program) Validate() error {
	if len(p.Threads) == 0 {
		return fmt.Errorf("program %q has no threads", p.Name)
	}
	for ti := range p.Threads {
		t := &p.Threads[ti]
		for i, in := range t.Instrs {
			// The location string is built lazily: Validate runs on every
			// generated program, and formatting each instruction eagerly
			// dominated the campaign's allocation profile.
			where := func() string { return fmt.Sprintf("%s@%d (%s)", t.Name, i, in) }
			if in.Rd >= NumRegs || in.Rs >= NumRegs || in.Rt >= NumRegs {
				return fmt.Errorf("%s: register out of range", where())
			}
			if in.Op.IsBranch() {
				// Target == len(Instrs) is legal: branching past the last
				// instruction halts the thread.
				if in.Target < 0 || in.Target > len(t.Instrs) {
					return fmt.Errorf("%s: branch target %d out of range [0,%d]", where(), in.Target, len(t.Instrs))
				}
			}
			switch in.Op {
			case OpNop, OpLoadImm, OpMov, OpAdd, OpAddImm, OpSub, OpLoad, OpStore,
				OpSyncLoad, OpSyncStore, OpTAS, OpSwap, OpBeq, OpBne, OpBlt, OpBge,
				OpJmp, OpHalt, OpFence:
			default:
				return fmt.Errorf("%s: unknown opcode %d", where(), in.Op)
			}
		}
	}
	if p.Cond != nil {
		if err := p.Cond.Validate(p); err != nil {
			return err
		}
	}
	return nil
}

// String disassembles the whole program.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	if len(p.Init) > 0 {
		addrs := make([]mem.Addr, 0, len(p.Init))
		for a := range p.Init {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		b.WriteString("init:")
		for _, a := range addrs {
			sym := p.SymbolFor(a)
			if sym == "" {
				sym = fmt.Sprintf("[%d]", a)
			}
			fmt.Fprintf(&b, " %s=%d", sym, p.Init[a])
		}
		b.WriteByte('\n')
	}
	for i := range p.Threads {
		b.WriteString(p.Threads[i].String())
	}
	return b.String()
}
