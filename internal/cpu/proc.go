// Package cpu models one processor: an in-order front end over the
// program IR, a write buffer with read forwarding, blocking reads, and
// the policy-specific stall rules that distinguish sequentially
// consistent hardware, unconstrained hardware, weak ordering per
// Definition 1, and the paper's new implementation (Section 5.3).
package cpu

import (
	"fmt"
	"strings"

	"weakorder/internal/cache"
	"weakorder/internal/mem"
	"weakorder/internal/metrics"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/sim"
)

// MemPort is the processor's view of its memory system: a cache (package
// cache) or a flat memory interface (the no-cache configurations).
type MemPort interface {
	// Issue starts a memory operation; the port calls the request's
	// OnCommit/OnGlobal callbacks as the operation progresses.
	Issue(r *cache.Req)
	// Counter returns the paper's outstanding-access counter.
	Counter() int
	// Busy reports whether any transaction is outstanding.
	Busy() bool
}

// Reason classifies processor stall cycles.
type Reason int

// Stall reasons.
const (
	// ReadWait: a blocking read is outstanding.
	ReadWait Reason = iota
	// SyncCommitWait: waiting for a synchronization operation to commit
	// (procure the line and perform the operation) — the only
	// synchronization stall under WO-Def2.
	SyncCommitWait
	// SyncGlobalWait: waiting for an issued synchronization operation to
	// be globally performed (Definition 1 condition 3; also SC's
	// per-access wait on sync ops).
	SyncGlobalWait
	// DrainPreSync: waiting for all previous accesses to be globally
	// performed before issuing a synchronization operation (Definition 1
	// condition 2).
	DrainPreSync
	// BufferDrain: waiting for the write buffer to finish issuing before
	// a synchronization operation may issue (program-order generation).
	BufferDrain
	// BufferFull: the write buffer has no free entry.
	BufferFull
	// PerAccessWait: SC's wait for the previous data access to be
	// globally performed.
	PerAccessWait
	// FenceWait: an explicit fence instruction is draining (all previous
	// accesses globally performed — the RP3 option).
	FenceWait
)

var reasonNames = [...]string{
	ReadWait:       "read-wait",
	SyncCommitWait: "sync-commit",
	SyncGlobalWait: "sync-global",
	DrainPreSync:   "drain-pre-sync",
	BufferDrain:    "buffer-drain",
	BufferFull:     "buffer-full",
	PerAccessWait:  "per-access",
	FenceWait:      "fence",
}

// NumReasons is the count of stall reasons (for fixed-size arrays).
const NumReasons = len(reasonNames)

// stallSpanNames are the precomputed timeline span labels — built once
// so recording a stall span never allocates on the hot path.
var stallSpanNames = func() (out [NumReasons]string) {
	for i, n := range reasonNames {
		out[i] = "stall:" + n
	}
	return
}()

// MetricName returns the reason's registry-friendly name (dashes to
// underscores), used for per-cause stall counters.
func (r Reason) MetricName() string {
	return strings.ReplaceAll(r.String(), "-", "_")
}

// String names the reason.
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("Reason(%d)", int(r))
}

// Stats aggregates one processor's activity.
type Stats struct {
	// Stall counts cycles stalled, by reason.
	Stall [NumReasons]uint64
	// MemOps counts dispatched memory operations; SyncOps the subset that
	// are synchronization operations.
	MemOps  uint64
	SyncOps uint64
	// Forwards counts reads satisfied from the write buffer.
	Forwards uint64
	// DoneAt is the cycle the processor halted (0 while running).
	DoneAt uint64
}

// TotalStall sums all stall cycles.
func (s *Stats) TotalStall() uint64 {
	var t uint64
	for _, v := range s.Stall {
		t += v
	}
	return t
}

// SyncStall sums the synchronization-related stall reasons — the paper's
// Figure 3 comparison quantity.
func (s *Stats) SyncStall() uint64 {
	return s.Stall[SyncCommitWait] + s.Stall[SyncGlobalWait] +
		s.Stall[DrainPreSync] + s.Stall[BufferDrain]
}

// Config parameterizes a processor.
type Config struct {
	// ID is the processor number (and its cache's endpoint id).
	ID int
	// ThreadID is the logical thread id operations are attributed to;
	// zero defaults to ID. Migration (Install) overrides it.
	ThreadID int
	// Policy selects the consistency enforcement rules.
	Policy policy.Kind
	// WriteBufferSize bounds unissued buffered writes (default 8).
	WriteBufferSize int
	// MaxOutstandingWrites bounds writes issued to the memory system but
	// not yet committed — the lockup-free write parallelism (default 4).
	MaxOutstandingWrites int
	// MaxLocalRun bounds consecutive local instructions per cycle slot
	// (default 10000; a local infinite loop halts the simulation with an
	// error via the machine's watchdog).
	MaxLocalRun int
	// Track, when non-nil, receives stall intervals as timeline spans
	// ("stall:<reason>"). Recording is a no-op on nil and never perturbs
	// execution.
	Track *metrics.Track
}

type procState int

const (
	stRun procState = iota
	stStalled
	stHalted
	stSuspended
)

type wbEntry struct {
	addr mem.Addr
	val  mem.Value
	op   mem.Op   // trace template
	enq  sim.Time // cycle the write entered the buffer
}

// TraceSink receives each memory operation at commit time, in commit
// order.
type TraceSink func(op mem.Op)

// Proc is one processor core.
type Proc struct {
	k      *sim.Kernel
	cfg    Config
	port   MemPort
	thread program.Thread
	sink   TraceSink

	pc     int
	regs   [program.NumRegs]mem.Value
	nextIx int
	tid    int // logical thread id (survives migration)

	suspendReq bool

	state       procState
	stallReason Reason
	// unstall checks a poll-based stall condition each cycle; nil for
	// event-based stalls (cleared by a callback).
	unstall func() bool

	wbuf         []wbEntry
	issuedWrites int // writes issued to the port, not yet committed

	// finalRegs holds the registers at the thread's natural halt
	// (hasFinal false while running or after a migration export).
	finalRegs program.RegFile
	hasFinal  bool

	// free pools retired procReqs: every memory dispatch borrows one,
	// so steady-state execution allocates no requests or callback
	// closures (see procReq).
	free []*procReq

	// Poll-based stall predicates, bound once per processor so parking
	// on them never allocates a closure.
	fenceDone        func() bool
	bufferNotFull    func() bool
	drainPreSyncDone func() bool
	bufferEmpty      func() bool

	stats Stats
	err   error
}

// reqVariant selects a pooled request's commit/global behavior.
type reqVariant uint8

const (
	reqRead       reqVariant = iota
	reqSync                  // synchronization op issued by the front end
	reqDrainWrite            // buffered write issued by Drain
	reqPAWrite               // per-access-global (SC) write
)

// procReq is one pooled in-flight memory request: the cache.Req envelope
// plus the state its callbacks need, with the OnCommit/OnGlobal closures
// allocated once per pool entry and reused for every operation.
type procReq struct {
	p          *Proc
	variant    reqVariant
	rd         program.Reg
	kind       mem.Kind
	waitGlobal bool
	op         mem.Op
	req        cache.Req
	commitFn   func(mem.Value)
	globalFn   func()
}

func (r *procReq) onCommit(v mem.Value) {
	p := r.p
	switch r.variant {
	case reqRead:
		p.regs[r.rd] = v
		r.op.Got = v
		p.emit(r.op)
		if !r.waitGlobal {
			p.resume()
			p.release(r)
		}
	case reqSync:
		if r.kind.ReadsMemory() {
			p.regs[r.rd] = v
			r.op.Got = v
		}
		p.emit(r.op)
		if !r.waitGlobal {
			p.resume()
			p.release(r)
		}
	case reqDrainWrite:
		p.issuedWrites--
		p.emit(r.op)
		p.release(r)
	case reqPAWrite:
		p.emit(r.op) // released by onGlobal
	}
}

func (r *procReq) onGlobal() {
	p := r.p
	p.resume()
	p.release(r)
}

// newReq borrows a pooled request and resets its envelope.
func (p *Proc) newReq(variant reqVariant, kind mem.Kind, addr mem.Addr, data mem.Value, waitGlobal bool) *procReq {
	var r *procReq
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		r = &procReq{p: p}
		r.commitFn = r.onCommit
		r.globalFn = r.onGlobal
	}
	r.variant, r.kind, r.waitGlobal = variant, kind, waitGlobal
	r.req = cache.Req{Kind: kind, Addr: addr, Data: data, OnCommit: r.commitFn}
	if waitGlobal || variant == reqPAWrite {
		r.req.OnGlobal = r.globalFn
	}
	return r
}

// release returns a request whose final callback has fired. The memory
// system holds no live reference at that point: a request's last
// callback is invoked only after the port has retired it.
func (p *Proc) release(r *procReq) { p.free = append(p.free, r) }

// New constructs a processor running thread over port.
func New(k *sim.Kernel, cfg Config, thread program.Thread, port MemPort, sink TraceSink) *Proc {
	p := &Proc{k: k, port: port, sink: sink}
	p.fenceDone = func() bool {
		return len(p.wbuf) == 0 && p.issuedWrites == 0 && p.port.Counter() == 0
	}
	p.bufferNotFull = func() bool { return len(p.wbuf) < p.cfg.WriteBufferSize }
	p.drainPreSyncDone = func() bool {
		return len(p.wbuf) == 0 && p.port.Counter() == 0 && p.issuedWrites == 0
	}
	p.bufferEmpty = func() bool { return len(p.wbuf) == 0 }
	p.Reset(cfg, thread)
	return p
}

// Reset rewinds the processor to run a new thread on the same kernel and
// port, retaining the request pool and buffer capacity. It applies the
// same defaults as New.
func (p *Proc) Reset(cfg Config, thread program.Thread) {
	if cfg.WriteBufferSize == 0 {
		cfg.WriteBufferSize = 8
	}
	if cfg.MaxOutstandingWrites == 0 {
		cfg.MaxOutstandingWrites = 4
	}
	if cfg.MaxLocalRun == 0 {
		cfg.MaxLocalRun = 10_000
	}
	p.cfg = cfg
	p.thread = thread
	p.pc = 0
	p.regs = [program.NumRegs]mem.Value{}
	p.nextIx = 0
	p.suspendReq = false
	p.state = stRun
	p.stallReason = 0
	p.unstall = nil
	p.wbuf = p.wbuf[:0]
	p.issuedWrites = 0
	p.finalRegs = program.RegFile{}
	p.hasFinal = false
	p.stats = Stats{}
	p.err = nil
	p.tid = cfg.ThreadID
	if p.tid == 0 {
		p.tid = cfg.ID
	}
	if len(thread.Instrs) == 0 {
		p.state = stHalted
	}
}

// Err returns the first execution error (e.g. local infinite loop).
func (p *Proc) Err() error { return p.err }

// Halted reports whether the processor finished its program AND drained
// its write buffer.
func (p *Proc) Halted() bool { return p.state == stHalted && len(p.wbuf) == 0 }

// Stats returns processor statistics.
func (p *Proc) Stats() Stats { return p.stats }

// Reg returns a register value (for tests).
func (p *Proc) Reg(r program.Reg) mem.Value { return p.regs[r] }

// FinalRegs returns the thread's registers at its natural halt; ok is
// false while the thread is still running, was retired after a
// migration export, or never ran a thread.
func (p *Proc) FinalRegs() (program.RegFile, bool) {
	if !p.hasFinal {
		return program.RegFile{}, false
	}
	return p.finalRegs, true
}

// StallReason returns the current stall reason; meaningful only while
// stalled (for diagnostics).
func (p *Proc) StallReason() (Reason, bool) {
	return p.stallReason, p.state == stStalled
}

// Tick advances the processor's front end by one cycle. The machine runs
// every front end before any write buffer drains (Drain): a read
// dispatched this cycle reaches the memory system ahead of older buffered
// writes — the read-bypasses-write relaxation whose consequences Figure 1
// catalogs.
func (p *Proc) Tick() {
	if p.err != nil {
		return
	}
	switch p.state {
	case stHalted, stSuspended:
	case stStalled:
		p.stats.Stall[p.stallReason]++
		if p.unstall != nil && p.unstall() {
			p.unstall = nil
			p.state = stRun
			p.cfg.Track.End(p.k.Now())
		}
	case stRun:
		if p.suspendReq {
			// A pending context switch stops the front end: no new work
			// is dispatched while the buffer and in-flight writes drain.
			if len(p.wbuf) == 0 && p.issuedWrites == 0 {
				p.state = stSuspended
			}
			return
		}
		p.step()
	}
}

// Quiescent reports whether, absent new kernel events, the processor is
// guaranteed to do nothing on subsequent cycles: the front end is
// halted, suspended, or parked on a stall that is event-cleared or
// whose poll condition is currently false, and the write buffer cannot
// issue (empty, or at the outstanding-write bound). Every poll
// condition and Drain's gate depend only on state changed by kernel
// events, so quiescence persists until the next event fires — the
// invariant behind the machine's idle-cycle fast-forward. Stall-cycle
// accounting is the one per-cycle effect a quiescent processor still
// accrues; fast-forwarding callers restore it with AddStallCycles.
func (p *Proc) Quiescent() bool {
	switch p.state {
	case stHalted, stSuspended:
	case stStalled:
		if p.unstall != nil && p.unstall() {
			return false
		}
	default:
		return false
	}
	return len(p.wbuf) == 0 || p.issuedWrites >= p.cfg.MaxOutstandingWrites
}

// AddStallCycles accounts n skipped cycles to the current stall reason —
// the fast-forward replacement for the per-cycle increment in Tick.
func (p *Proc) AddStallCycles(n uint64) {
	if p.state == stStalled {
		p.stats.Stall[p.stallReason] += n
	}
}

// Drain issues one buffered write; a write issues no earlier than the
// cycle after it entered the buffer, and no more than
// MaxOutstandingWrites may be in flight (lockup-free but bounded). The
// machine calls Drain after all front ends have ticked.
func (p *Proc) Drain() {
	if len(p.wbuf) == 0 || p.wbuf[0].enq >= p.k.Now() || p.issuedWrites >= p.cfg.MaxOutstandingWrites {
		return
	}
	e := p.wbuf[0]
	// Pop by shifting in place: the buffer is tiny and the backing array
	// is retained, so draining never reallocates.
	copy(p.wbuf, p.wbuf[1:])
	p.wbuf = p.wbuf[:len(p.wbuf)-1]
	p.issuedWrites++
	r := p.newReq(reqDrainWrite, mem.Write, e.addr, e.val, false)
	r.op = e.op
	p.port.Issue(&r.req)
}

// stall parks the processor; cond (optional) is polled each cycle.
func (p *Proc) stall(r Reason, cond func() bool) {
	p.state = stStalled
	p.stallReason = r
	p.unstall = cond
	p.cfg.Track.Begin(stallSpanNames[r], p.k.Now())
}

// resume is used by event callbacks to restart the processor.
func (p *Proc) resume() {
	if p.state == stStalled {
		p.state = stRun
		p.unstall = nil
		p.cfg.Track.End(p.k.Now())
	}
}

// emit sends a committed operation to the trace sink.
func (p *Proc) emit(op mem.Op) {
	if p.sink != nil {
		p.sink(op)
	}
}

// step executes instructions until it consumes the cycle: one memory
// dispatch, a stall, or a halt. Local register instructions execute for
// free up to MaxLocalRun (the front end is not the bottleneck under
// study; memory behavior is).
func (p *Proc) step() {
	for local := 0; ; local++ {
		if local > p.cfg.MaxLocalRun {
			p.err = fmt.Errorf("cpu %d: local infinite loop at pc %d", p.cfg.ID, p.pc)
			return
		}
		if p.pc < 0 || p.pc >= len(p.thread.Instrs) {
			p.state = stHalted
			p.stats.DoneAt = uint64(p.k.Now())
			p.finalRegs = p.regs
			p.hasFinal = true
			return
		}
		in := p.thread.Instrs[p.pc]
		if in.Op.IsMemory() {
			p.dispatch(in)
			return
		}
		if in.Op == program.OpFence {
			p.pc++
			if len(p.wbuf) > 0 || p.issuedWrites > 0 || p.port.Counter() > 0 {
				p.stall(FenceWait, p.fenceDone)
			}
			return // the fence consumes the cycle even when already drained
		}
		var halted bool
		if p.pc, halted = in.ExecLocal(&p.regs, p.pc); halted {
			p.state = stHalted
			p.stats.DoneAt = uint64(p.k.Now())
			p.finalRegs = p.regs
			p.hasFinal = true
			return
		}
	}
}

// opTemplate builds the trace record for the memory instruction at pc.
func (p *Proc) opTemplate(in program.Instr, kind mem.Kind) mem.Op {
	op := mem.Op{
		Proc:  p.tid,
		Index: p.nextIx,
		Kind:  kind,
		Addr:  in.Addr,
		Label: in.Sym,
	}
	p.nextIx++
	p.stats.MemOps++
	if kind.IsSync() {
		p.stats.SyncOps++
	}
	return op
}

// dispatch handles the memory instruction at pc per the policy.
func (p *Proc) dispatch(in program.Instr) {
	kind := in.Op.MemKind()
	switch kind {
	case mem.Read:
		p.dispatchRead(in)
	case mem.Write:
		p.dispatchWrite(in)
	default:
		p.dispatchSync(in, kind)
	}
}

func (p *Proc) dispatchRead(in program.Instr) {
	op := p.opTemplate(in, mem.Read)
	p.pc++
	// Read forwarding: the newest buffered write to the same address
	// supplies the value (intra-processor dependency, condition 1).
	if p.cfg.Policy.UsesWriteBuffer() {
		for i := len(p.wbuf) - 1; i >= 0; i-- {
			if p.wbuf[i].addr == in.Addr {
				p.stats.Forwards++
				v := p.wbuf[i].val
				p.regs[in.Rd] = v
				op.Got = v
				p.emit(op)
				return // forwarding consumes the cycle
			}
		}
	}
	waitGlobal := p.cfg.Policy.PerAccessGlobal()
	r := p.newReq(reqRead, mem.Read, in.Addr, 0, waitGlobal)
	r.rd = in.Rd
	r.op = op
	if waitGlobal {
		p.stall(PerAccessWait, nil)
	} else {
		p.stall(ReadWait, nil)
	}
	p.port.Issue(&r.req)
}

func (p *Proc) dispatchWrite(in program.Instr) {
	val := in.WriteValue(&p.regs)
	if p.cfg.Policy.PerAccessGlobal() {
		op := p.opTemplate(in, mem.Write)
		op.Data = val
		p.pc++
		p.stall(PerAccessWait, nil)
		r := p.newReq(reqPAWrite, mem.Write, in.Addr, val, false)
		r.op = op
		p.port.Issue(&r.req)
		return
	}
	if len(p.wbuf) >= p.cfg.WriteBufferSize {
		// Buffer full: retry this instruction once drainBuffer frees an
		// entry.
		p.stall(BufferFull, p.bufferNotFull)
		return
	}
	op := p.opTemplate(in, mem.Write)
	op.Data = val
	p.pc++
	p.wbuf = append(p.wbuf, wbEntry{addr: in.Addr, val: val, op: op, enq: p.k.Now()})
}

// dispatchSync handles synchronization operations per policy.
func (p *Proc) dispatchSync(in program.Instr, kind mem.Kind) {
	pol := p.cfg.Policy

	// Read-only synchronization under the Section 6 refinement behaves
	// like a read at the processor too: no buffer drain, commit-only wait.
	if kind == mem.SyncRead && pol.ROSyncBypass() {
		p.issueSync(in, kind, false)
		return
	}

	switch {
	case pol.PerAccessGlobal(): // SC
		p.issueSync(in, kind, true)
	case pol.DrainBeforeSync(): // Definition 1
		if len(p.wbuf) > 0 || p.port.Counter() > 0 || p.issuedWrites > 0 {
			p.stall(DrainPreSync, p.drainPreSyncDone)
			return
		}
		p.issueSync(in, kind, pol.WaitSyncGlobal())
	default: // Unconstrained, WO-Def2, WO-Def2+RO
		if len(p.wbuf) > 0 {
			// Program-order generation: previous writes must at least be
			// issued (counted) before the synchronization operation.
			p.stall(BufferDrain, p.bufferEmpty)
			return
		}
		p.issueSync(in, kind, false)
	}
}

// issueSync sends the synchronization operation and stalls until commit
// (or global performance when waitGlobal).
func (p *Proc) issueSync(in program.Instr, kind mem.Kind, waitGlobal bool) {
	op := p.opTemplate(in, kind)
	p.pc++
	data := in.WriteValue(&p.regs)
	op.Data = data
	r := p.newReq(reqSync, kind, in.Addr, data, waitGlobal)
	r.rd = in.Rd
	r.op = op
	if waitGlobal {
		p.stall(SyncGlobalWait, nil)
	} else {
		p.stall(SyncCommitWait, nil)
	}
	p.port.Issue(&r.req)
}
