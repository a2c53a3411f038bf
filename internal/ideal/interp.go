// Package ideal executes programs on the paper's idealized architecture:
// all memory accesses execute atomically and in program order (Section 4).
// It provides a single-step interpreter whose interleavings are controlled
// by the caller, plus an exhaustive enumerator of all interleavings — the
// executable form of "any execution on the idealized system" in
// Definition 3 and the substrate for the sequential-consistency oracle.
//
// A step advances one thread through its local (register-only)
// instructions and then executes exactly one memory operation atomically.
// Local computation cannot affect other threads, so interleaving at memory
// granularity preserves the full set of observable behaviors while keeping
// enumeration tractable.
package ideal

import (
	"errors"
	"fmt"
	"slices"

	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// Config bounds interpretation so that buggy or adversarially scheduled
// programs (e.g. spin loops under unfair interleavings) cannot run forever.
type Config struct {
	// MaxLocalSteps bounds the register-only instructions executed within
	// one Step call; exceeding it is an error (local infinite loop).
	// Zero means DefaultMaxLocalSteps.
	MaxLocalSteps int
	// MaxMemOpsPerThread bounds the dynamic memory operations a single
	// thread may perform; exceeding it truncates the path (ErrTruncated).
	// Zero means DefaultMaxMemOps.
	MaxMemOpsPerThread int
}

// Defaults for Config fields.
const (
	DefaultMaxLocalSteps = 10_000
	DefaultMaxMemOps     = 10_000
)

func (c Config) maxLocal() int {
	if c.MaxLocalSteps > 0 {
		return c.MaxLocalSteps
	}
	return DefaultMaxLocalSteps
}

func (c Config) maxMemOps() int {
	if c.MaxMemOpsPerThread > 0 {
		return c.MaxMemOpsPerThread
	}
	return DefaultMaxMemOps
}

// ErrTruncated reports that a thread exceeded its dynamic memory-operation
// budget; the path was abandoned rather than executed to completion.
var ErrTruncated = errors.New("ideal: execution truncated (memory-operation budget exceeded)")

type threadState struct {
	pc     int
	regs   [program.NumRegs]mem.Value
	nextIx int // program-order index of the thread's next memory operation
	halted bool
}

// Interp interprets one program on the idealized architecture. The zero
// value is not usable; construct with New. Interp values are cheap to
// Clone, which the enumerator exploits.
type Interp struct {
	prog    *program.Program
	cfg     Config
	threads []threadState
	memory  map[mem.Addr]mem.Value
	trace   []mem.Op

	// keyAddrs is AppendStateKey's address-sorting scratch; it carries no
	// state and is deliberately not copied by Clone/copyFrom.
	keyAddrs []mem.Addr
}

// New returns an interpreter positioned at the start of p.
func New(p *program.Program, cfg Config) *Interp {
	it := &Interp{
		prog:    p,
		cfg:     cfg,
		threads: make([]threadState, p.NumThreads()),
		memory:  make(map[mem.Addr]mem.Value, len(p.Init)),
	}
	for a, v := range p.Init {
		it.memory[a] = v
	}
	for i := range it.threads {
		// Eagerly run leading local instructions so that a runnable
		// thread is always positioned at a memory instruction; this keeps
		// interleaving choices meaningful (local computation cannot
		// affect other threads). Local-loop errors surface on first Step.
		_ = it.advance(i)
	}
	return it
}

// Clone returns an independent copy of the interpreter state.
func (it *Interp) Clone() *Interp {
	out := &Interp{
		prog:    it.prog,
		cfg:     it.cfg,
		threads: make([]threadState, len(it.threads)),
		memory:  make(map[mem.Addr]mem.Value, len(it.memory)),
		// One spare slot: the clone's next Step appends to the trace.
		trace: make([]mem.Op, len(it.trace), len(it.trace)+1),
	}
	copy(out.threads, it.threads)
	copy(out.trace, it.trace)
	for a, v := range it.memory {
		out.memory[a] = v
	}
	return out
}

// copyFrom overwrites it with src's state, reusing it's existing
// storage. Equivalent to Clone from the caller's perspective; this is
// what lets arena.clone recycle retired interpreters.
func (it *Interp) copyFrom(src *Interp) {
	it.prog = src.prog
	it.cfg = src.cfg
	if cap(it.threads) < len(src.threads) {
		it.threads = make([]threadState, len(src.threads))
	}
	it.threads = it.threads[:len(src.threads)]
	copy(it.threads, src.threads)
	it.trace = append(it.trace[:0], src.trace...)
	if it.memory == nil {
		it.memory = make(map[mem.Addr]mem.Value, len(src.memory))
	} else {
		clear(it.memory)
	}
	for a, v := range src.memory {
		it.memory[a] = v
	}
}

// Program returns the program under interpretation.
func (it *Interp) Program() *program.Program { return it.prog }

// Runnable returns the ids of threads that have not halted.
func (it *Interp) Runnable() []int { return it.RunnableInto(nil) }

// RunnableInto appends the ids of non-halted threads to dst[:0] and
// returns the result — the allocation-free form of Runnable for search
// hot loops holding their own scratch.
func (it *Interp) RunnableInto(dst []int) []int {
	dst = dst[:0]
	for i := range it.threads {
		if !it.threads[i].halted {
			dst = append(dst, i)
		}
	}
	return dst
}

// Done reports whether every thread has halted.
func (it *Interp) Done() bool {
	for i := range it.threads {
		if !it.threads[i].halted {
			return false
		}
	}
	return true
}

// Reg returns the current value of a thread register (for tests).
func (it *Interp) Reg(tid int, r program.Reg) mem.Value { return it.threads[tid].regs[r] }

// MemValue returns the current contents of an address.
func (it *Interp) MemValue(a mem.Addr) mem.Value { return it.memory[a] }

// TraceLen returns the number of memory operations executed so far.
func (it *Interp) TraceLen() int { return len(it.trace) }

// PendingAccess returns the address and kind of the memory operation
// thread tid will execute on its next Step. known is false when the
// thread has halted or is not positioned at a memory instruction (a
// deferred advance error); callers using this for independence must
// then treat the thread's next step as dependent on everything.
func (it *Interp) PendingAccess(tid int) (addr mem.Addr, kind mem.Kind, known bool) {
	if tid < 0 || tid >= len(it.threads) || it.threads[tid].halted {
		return 0, 0, false
	}
	ts := &it.threads[tid]
	instrs := it.prog.Threads[tid].Instrs
	if ts.pc < 0 || ts.pc >= len(instrs) || !instrs[ts.pc].Op.IsMemory() {
		return 0, 0, false
	}
	in := instrs[ts.pc]
	return in.Addr, in.Op.MemKind(), true
}

// advance runs thread tid through local (register-only) instructions
// until it either halts or is positioned at a memory instruction. It
// errors on local infinite loops.
func (it *Interp) advance(tid int) error {
	ts := &it.threads[tid]
	instrs := it.prog.Threads[tid].Instrs
	for local := 0; ; local++ {
		if local > it.cfg.maxLocal() {
			return fmt.Errorf("ideal: thread %d exceeded %d local steps (infinite local loop?)", tid, it.cfg.maxLocal())
		}
		if ts.pc < 0 || ts.pc >= len(instrs) {
			ts.halted = true
			return nil
		}
		in := instrs[ts.pc]
		if in.Op.IsMemory() {
			return nil
		}
		if ts.pc, ts.halted = in.ExecLocal(&ts.regs, ts.pc); ts.halted {
			return nil
		}
	}
}

// Step advances thread tid by one memory operation: the thread is always
// positioned at a memory instruction (advance runs local instructions
// eagerly), so Step executes that operation atomically, appends it to the
// trace, runs the thread forward to its next memory instruction or halt,
// and returns the operation. ok is false only when the thread halted with
// no memory operation pending (possible if a prior advance failed). Step
// returns an error for local infinite loops, memory-op budget exhaustion
// (ErrTruncated), or stepping a halted thread.
func (it *Interp) Step(tid int) (op mem.Op, ok bool, err error) {
	if tid < 0 || tid >= len(it.threads) {
		return mem.Op{}, false, fmt.Errorf("ideal: no thread %d", tid)
	}
	ts := &it.threads[tid]
	if ts.halted {
		return mem.Op{}, false, fmt.Errorf("ideal: thread %d already halted", tid)
	}
	instrs := it.prog.Threads[tid].Instrs
	if ts.pc < 0 || ts.pc >= len(instrs) || !instrs[ts.pc].Op.IsMemory() {
		// Leading local instructions were not yet run (advance error in
		// New is deferred to here) — run them now.
		if err := it.advance(tid); err != nil {
			return mem.Op{}, false, err
		}
		if ts.halted {
			return mem.Op{}, false, nil
		}
	}
	in := instrs[ts.pc]
	if ts.nextIx >= it.cfg.maxMemOps() {
		return mem.Op{}, false, ErrTruncated
	}
	op = it.execMem(tid, ts, in)
	ts.pc++
	it.trace = append(it.trace, op)
	if err := it.advance(tid); err != nil {
		return op, true, err
	}
	return op, true, nil
}

// execMem atomically executes a memory instruction against the idealized
// memory and returns the resulting dynamic operation.
func (it *Interp) execMem(tid int, ts *threadState, in program.Instr) mem.Op {
	op := mem.Op{
		Proc:  tid,
		Index: ts.nextIx,
		Kind:  in.Op.MemKind(),
		Addr:  in.Addr,
		Label: in.Sym,
		Data:  in.WriteValue(&ts.regs),
	}
	ts.nextIx++
	if op.Kind.ReadsMemory() {
		op.Got = it.memory[in.Addr]
		ts.regs[in.Rd] = op.Got
	}
	if op.Kind.WritesMemory() {
		it.memory[in.Addr] = op.Data
	}
	return op
}

// Execution snapshots the trace and memory into a mem.Execution. It may be
// called at any time; normally it is called once Done reports true.
func (it *Interp) Execution() *mem.Execution {
	e := &mem.Execution{
		Ops:   make([]mem.Op, len(it.trace)),
		Final: make(map[mem.Addr]mem.Value, len(it.memory)),
		Procs: len(it.threads),
	}
	copy(e.Ops, it.trace)
	for a, v := range it.memory {
		e.Final[a] = v
	}
	return e
}

// EvalCond evaluates a litmus postcondition against the interpreter's
// final registers and memory (meaningful once Done reports true).
func (it *Interp) EvalCond(c *program.Cond) bool {
	if c == nil {
		return false
	}
	regs := make([]program.RegFile, len(it.threads))
	for i := range it.threads {
		regs[i] = it.threads[i].regs
	}
	return c.Eval(regs, it.memory)
}

// AppendStateKey appends a canonical fingerprint of the interpreter's
// full state (thread contexts plus memory, excluding the trace) to buf
// and returns the result. Two interpreters with equal keys have
// identical sets of possible futures, which makes the key sound for
// memoizing reachability searches. The encoding is compact binary
// (varints), not human-readable: the key exists to index a memo map,
// which a search can probe with string(AppendStateKey(scratch[:0]))
// without allocating.
func (it *Interp) AppendStateKey(buf []byte) []byte {
	for i := range it.threads {
		ts := &it.threads[i]
		buf = appendVarint(buf, int64(ts.pc))
		buf = appendVarint(buf, int64(ts.nextIx))
		if ts.halted {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		for _, r := range ts.regs {
			buf = appendVarint(buf, int64(r))
		}
	}
	buf = append(buf, 0xFF) // section separator
	addrs := it.keyAddrs[:0]
	for a := range it.memory {
		if it.memory[a] != 0 {
			addrs = append(addrs, a)
		}
	}
	slices.Sort(addrs)
	it.keyAddrs = addrs
	for _, a := range addrs {
		buf = appendVarint(buf, int64(a))
		buf = appendVarint(buf, int64(it.memory[a]))
	}
	return buf
}

// appendVarint appends a zig-zag varint.
func appendVarint(buf []byte, v int64) []byte {
	u := uint64(v<<1) ^ uint64(v>>63)
	for u >= 0x80 {
		buf = append(buf, byte(u)|0x80)
		u >>= 7
	}
	return append(buf, byte(u))
}
