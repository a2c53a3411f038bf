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
//
// Enumerate is one depth-first walker. With reduction on it prunes
// interleavings that commute independent operations (sleep sets and a
// state memo); with reduction off, or for programs wider than the
// sleep-set mask, the same walk visits every interleaving.
//
// Memory is dense: one slot per address of the program's sorted address
// table, resolved once per program, so a step indexes a slice and a
// state key walks the slots in address order. The walk shares one path
// trace between a node and its children instead of copying it per
// step, so a path costs its length, not its length squared, and the
// memo's storage is recycled from one enumeration to the next.
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
	// MaxMemOpsPerThread bounds the dynamic memory operations a single
	// thread may perform; exceeding it truncates the path (ErrTruncated).
	// Zero means DefaultMaxMemOps.
	MaxMemOpsPerThread int
}

// DefaultMaxMemOps is the per-thread memory-operation budget when
// Config.MaxMemOpsPerThread is zero.
const DefaultMaxMemOps = 10_000

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

// layout maps a program's addresses to dense memory slots. New builds
// it once and every clone shares it read-only.
type layout struct {
	// addrs is program.Addresses: ascending, one address per slot.
	addrs []mem.Addr
	// slots[tid][pc] is the slot of thread tid's memory instruction at
	// pc (unused for local instructions).
	slots [][]int32
}

func newLayout(p *program.Program) *layout {
	lay := &layout{addrs: p.Addresses(), slots: make([][]int32, len(p.Threads))}
	for tid, t := range p.Threads {
		lay.slots[tid] = make([]int32, len(t.Instrs))
		for pc, in := range t.Instrs {
			if in.Op.IsMemory() {
				lay.slots[tid][pc] = int32(lay.slot(in.Addr))
			}
		}
	}
	return lay
}

// slot returns a's slot, or -1 when the program cannot touch a.
func (lay *layout) slot(a mem.Addr) int {
	if s, ok := slices.BinarySearch(lay.addrs, a); ok {
		return s
	}
	return -1
}

// Interp interprets one program on the idealized architecture. The zero
// value is not usable; construct with New. The enumerator copies an
// Interp once per step (copyFrom), so its state is kept small and flat.
type Interp struct {
	prog    *program.Program
	cfg     Config
	lay     *layout
	threads []threadState
	// memory holds each slot's value; present marks the slots that were
	// initialized or written, the addresses Execution reports in Final.
	memory  []mem.Value
	present []bool
	trace   []mem.Op
}

// New returns an interpreter positioned at the start of p.
func New(p *program.Program, cfg Config) *Interp {
	lay := newLayout(p)
	it := &Interp{
		prog:    p,
		cfg:     cfg,
		lay:     lay,
		threads: make([]threadState, p.NumThreads()),
		memory:  make([]mem.Value, len(lay.addrs)),
		present: make([]bool, len(lay.addrs)),
	}
	for a, v := range p.Init {
		s := lay.slot(a)
		it.memory[s] = v
		it.present[s] = true
	}
	for i := range it.threads {
		// Eagerly run leading local instructions so that a runnable
		// thread is always positioned at a memory instruction; this keeps
		// interleaving choices meaningful (local computation cannot
		// affect other threads). A run that overruns the local-step
		// bound fails the thread's first Step.
		_ = it.advance(i)
	}
	return it
}

// copyFrom overwrites it with src's state, reusing it's storage, and
// shares src's trace rather than copying it: it's next Step appends in
// place, over whatever a previous child of src left there. That is what
// lets arena.clone make a child per step at the cost of the state alone,
// and it is sound only for a depth-first walk, which never steps src
// while a child lives. A full src grows first, so that all of its
// children keep sharing one array.
func (it *Interp) copyFrom(src *Interp) {
	it.prog = src.prog
	it.cfg = src.cfg
	it.lay = src.lay
	it.threads = append(it.threads[:0], src.threads...)
	it.memory = append(it.memory[:0], src.memory...)
	it.present = append(it.present[:0], src.present...)
	if len(src.trace) == cap(src.trace) {
		src.trace = slices.Grow(src.trace, 1)
	}
	it.trace = src.trace
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
func (it *Interp) MemValue(a mem.Addr) mem.Value {
	if s := it.lay.slot(a); s >= 0 {
		return it.memory[s]
	}
	return 0
}

// Trace returns the memory operations executed so far, in completion
// order. The slice is the interpreter's own: read it, do not modify or
// retain it (Execution snapshots a copy).
func (it *Interp) Trace() []mem.Op { return it.trace }

// PendingAccess returns the address and kind of the memory operation
// thread tid will execute on its next Step. known is false when the
// thread has halted or is not positioned at a memory instruction (its
// local run overran the bound); callers using this for independence
// must then treat the thread's next step as dependent on everything.
func (it *Interp) PendingAccess(tid int) (addr mem.Addr, kind mem.Kind, known bool) {
	if tid < 0 || tid >= len(it.threads) || it.threads[tid].halted {
		return 0, 0, false
	}
	in := it.prog.Threads[tid].Instrs[it.threads[tid].pc]
	if !in.Op.IsMemory() {
		return 0, 0, false
	}
	return in.Addr, in.Op.MemKind(), true
}

// advance runs thread tid's register-only run (program.Thread.RunLocal)
// up to its next memory instruction or its halt. A run that overruns
// the local-step bound leaves the thread at a local instruction, where
// every later Step fails with the same error.
func (it *Interp) advance(tid int) error {
	ts := &it.threads[tid]
	var err error
	if ts.pc, ts.halted, err = it.prog.Threads[tid].RunLocal(&ts.regs, ts.pc); err != nil {
		return localLoop(tid)
	}
	return nil
}

// localLoop is the error of thread tid's overrunning local run.
func localLoop(tid int) error {
	return fmt.Errorf("ideal: thread %d %w", tid, program.ErrLocalLoop)
}

// Step advances thread tid by one memory operation: the thread is
// positioned at a memory instruction (advance runs local instructions
// eagerly), so Step executes that operation atomically, appends it to
// the trace, runs the thread forward to its next memory instruction or
// halt, and returns the operation. Step returns an error for a local
// run that overran the bound (program.ErrLocalLoop, before this step or
// after it), memory-op budget exhaustion (ErrTruncated), or stepping a
// halted thread.
func (it *Interp) Step(tid int) (mem.Op, error) {
	if tid < 0 || tid >= len(it.threads) {
		return mem.Op{}, fmt.Errorf("ideal: no thread %d", tid)
	}
	ts := &it.threads[tid]
	if ts.halted {
		return mem.Op{}, fmt.Errorf("ideal: thread %d already halted", tid)
	}
	in := it.prog.Threads[tid].Instrs[ts.pc]
	if !in.Op.IsMemory() {
		return mem.Op{}, localLoop(tid)
	}
	if ts.nextIx >= it.cfg.maxMemOps() {
		return mem.Op{}, ErrTruncated
	}
	op := it.execMem(tid, ts, in, it.lay.slots[tid][ts.pc])
	ts.pc++
	it.trace = append(it.trace, op)
	return op, it.advance(tid)
}

// execMem atomically executes a memory instruction against the idealized
// memory slot s of its address and returns the resulting dynamic
// operation.
func (it *Interp) execMem(tid int, ts *threadState, in program.Instr, s int32) mem.Op {
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
		op.Got = it.memory[s]
		ts.regs[in.Rd] = op.Got
	}
	if op.Kind.WritesMemory() {
		it.memory[s] = op.Data
		it.present[s] = true
	}
	return op
}

// Execution snapshots the trace and memory into a mem.Execution. It may be
// called at any time; normally it is called once Done reports true.
func (it *Interp) Execution() *mem.Execution {
	return &mem.Execution{
		Ops:   slices.Clone(it.trace),
		Final: it.finalMemory(),
		Procs: len(it.threads),
	}
}

// finalMemory maps every initialized or written address to its value.
func (it *Interp) finalMemory() map[mem.Addr]mem.Value {
	out := make(map[mem.Addr]mem.Value, len(it.present))
	for s, p := range it.present {
		if p {
			out[it.lay.addrs[s]] = it.memory[s]
		}
	}
	return out
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
	return c.Eval(regs, it.finalMemory())
}

// AppendStateKey appends a canonical fingerprint of the interpreter's
// full state (thread contexts plus memory, excluding the trace) to buf
// and returns the result. Two interpreters with equal keys have
// identical sets of possible futures, which makes the key sound for
// memoizing reachability searches. The encoding is compact binary
// (varints), not human-readable: the key exists to index a memo map,
// which a search can probe with string(AppendStateKey(scratch[:0]))
// without allocating. Memory contributes its non-zero (address, value)
// pairs in ascending address order.
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
	for s, v := range it.memory {
		if v != 0 {
			buf = appendVarint(buf, int64(it.lay.addrs[s]))
			buf = appendVarint(buf, int64(v))
		}
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
