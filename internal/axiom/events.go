package axiom

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// A candidate execution is assembled in two stages. First, each thread is
// run by itself: control flow and store values may depend on loaded
// values, so the local enumerator executes the thread symbolically — a
// read yields a symbolic value, and only when that value escapes into a
// branch condition, an arithmetic operand or a store operand does the
// enumerator fork over the address's value domain, pinning the read. The
// result is the set of possible per-thread event sequences ("runs"),
// each a straight event list with reads either pinned to a concrete
// value or left free. Second, enumerate.go combines one run per thread
// with initial-write events into a skeleton and searches rf/co choices;
// a pinned read constrains rf to value-matching writes, a free read
// accepts any same-address write.
//
// The value domains are computed by fixpoint (see computeDomains): start
// from the initial values and fold every write value produced by any run
// back into its address's domain until nothing changes. The rounds are
// bounded by the total write budget: in any consistent candidate under
// the bundled models (all of which imply acyclic(po ∪ rf)), a read value
// is justified by an acyclic chain of distinct dynamic writes, so a
// value needing a derivation chain longer than the maximum number of
// dynamic writes in one candidate can never be observed.

// event is one node of a candidate execution graph.
type event struct {
	proc   int // mem.InitProc for initial writes
	index  int // memory-op ordinal within the thread; -1 for fences
	kind   mem.Kind
	fence  bool
	addr   mem.Addr
	data   mem.Value // value written (write component)
	got    mem.Value // value read, when pinned
	pinned bool      // read value fixed by local control/data flow
}

func (e *event) isRead() bool  { return !e.fence && e.kind.ReadsMemory() }
func (e *event) isWrite() bool { return !e.fence && (e.proc == mem.InitProc || e.kind.WritesMemory()) }

// runEnumerator enumerates the complete runs of one thread.
type runEnumerator struct {
	instrs    []program.Instr
	memBudget int // max dynamic memory ops per run (truncation bound)
	dom       map[mem.Addr][]mem.Value

	runs      [][]event
	truncated bool // some run hit the memory-op budget and was discarded
	overflow  bool // more than maxRunsPerThread complete runs: enumeration incomplete

	// cutWrites collects the write events of truncated run prefixes and
	// cutMaxW their largest per-run write count. Truncated runs produce
	// no candidates, but their writes must still feed the value-domain
	// fixpoint: a spin loop in one thread often exits only on a value
	// that another thread writes beyond its own spin — visible only in
	// that thread's truncated prefixes until the domain grows.
	cutWrites []event
	cutMaxW   int
}

type escape struct {
	ord  int
	addr mem.Addr
}

var errRunOverflow = errors.New("axiom: run overflow")

// enumerate explores all pinnings reachable from pins, appending complete
// runs. A run that attempts more than memBudget memory operations is
// discarded — the exact analogue of ideal.ErrTruncated under
// SkipTruncated, which keeps the candidate space aligned with the
// operational oracles' bounded enumeration.
func (re *runEnumerator) enumerate(pins map[int]mem.Value) error {
	run, esc, err := re.exec(pins)
	if err != nil {
		return err
	}
	if esc != nil {
		for _, v := range re.dom[esc.addr] {
			pins[esc.ord] = v
			if err := re.enumerate(pins); err != nil {
				return err
			}
		}
		delete(pins, esc.ord)
		return nil
	}
	if run != nil {
		if len(re.runs) >= maxRunsPerThread {
			re.overflow = true
			return errRunOverflow
		}
		re.runs = append(re.runs, run)
	}
	return nil
}

// noteCut records a truncated prefix's writes for the domain fixpoint.
func (re *runEnumerator) noteCut(evs []event) {
	w := 0
	for i := range evs {
		if !evs[i].fence && evs[i].kind.WritesMemory() {
			w++
			re.cutWrites = append(re.cutWrites, evs[i])
		}
	}
	re.cutMaxW = max(re.cutMaxW, w)
}

// exec runs the thread deterministically under the given read pinnings.
// It returns the completed run, or a non-nil escape when an unpinned read
// value is about to influence execution (the caller forks on it), or
// (nil, nil, nil) for a truncated run. Every instruction runs with the
// interpreter's semantics (program.Instr's ExecLocal and WriteValue);
// what symbolic execution adds is which registers hold an unpinned
// read, and the fence events.
func (re *runEnumerator) exec(pins map[int]mem.Value) ([]event, *escape, error) {
	var regs program.RegFile
	// unread[r] is one past the position in evs of the unpinned read
	// whose value r holds, or 0 when r's value is known.
	var unread [program.NumRegs]int
	var evs []event
	// local counts the register-only run since the last memory
	// operation, as program.Thread.RunLocal counts it.
	pc, ord, local := 0, 0, 0
	for {
		if pc < 0 || pc >= len(re.instrs) {
			return evs, nil, nil
		}
		in := re.instrs[pc]
		isMem := in.Op.IsMemory()
		switch {
		case isMem && ord >= re.memBudget:
			re.truncated = true
			re.noteCut(evs)
			return nil, nil, nil
		case !isMem && local == program.MaxLocalSteps:
			return nil, nil, fmt.Errorf("axiom: %w", program.ErrLocalLoop)
		}
		// Reading a register that holds an unpinned read forks on the
		// read's value; mov carries the read along unread.
		if in.Op != program.OpMov {
			rs, n := in.ReadRegs()
			for _, r := range rs[:n] {
				if u := unread[r]; u > 0 {
					return nil, &escape{ord: evs[u-1].index, addr: evs[u-1].addr}, nil
				}
			}
		}
		if isMem {
			ev := event{index: ord, kind: in.Op.MemKind(), addr: in.Addr, data: in.WriteValue(&regs)}
			if ev.kind.ReadsMemory() {
				ev.got, ev.pinned = pins[ord]
				regs[in.Rd], unread[in.Rd] = ev.got, 0
				if !ev.pinned {
					unread[in.Rd] = len(evs) + 1
				}
			}
			evs = append(evs, ev)
			pc, ord, local = pc+1, ord+1, 0
			continue
		}
		switch in.Op {
		case program.OpFence:
			evs = append(evs, event{index: -1, fence: true})
		case program.OpMov:
			unread[in.Rd] = unread[in.Rs]
		default:
			if rd, ok := in.LocalDest(); ok {
				unread[rd] = 0
			}
		}
		local++
		var halted bool
		if pc, halted = in.ExecLocal(&regs, pc); halted {
			return evs, nil, nil
		}
	}
}

// threadRuns holds one thread's enumerated complete runs plus the
// write events of truncated prefixes (domain-fixpoint fuel only).
type threadRuns struct {
	runs      [][]event
	truncated bool
	cutWrites []event
	cutMaxW   int
}

// enumerateRuns runs the local enumerator for every thread against the
// given value domains. overflow reports that some thread exceeded the
// per-thread run cap, making the enumeration incomplete.
func enumerateRuns(p *program.Program, dom map[mem.Addr][]mem.Value, cfg *Config) (runs []threadRuns, overflow bool, err error) {
	runs = make([]threadRuns, len(p.Threads))
	for t := range p.Threads {
		re := &runEnumerator{
			instrs:    p.Threads[t].Instrs,
			memBudget: cfg.MaxMemOpsPerThread,
			dom:       dom,
		}
		err := re.enumerate(make(map[int]mem.Value))
		if err != nil && !errors.Is(err, errRunOverflow) {
			return nil, false, fmt.Errorf("thread %d: %w", t, err)
		}
		runs[t] = threadRuns{
			runs:      re.runs,
			truncated: re.truncated,
			cutWrites: re.cutWrites,
			cutMaxW:   re.cutMaxW,
		}
		overflow = overflow || re.overflow
	}
	return runs, overflow, nil
}

// initValue returns the initial value of addr (zero when not in Init).
func initValue(p *program.Program, a mem.Addr) mem.Value {
	if p.Init != nil {
		return p.Init[a]
	}
	return 0
}

// computeDomains iterates per-address value domains to a fixpoint: start
// from initial values, enumerate runs, fold every produced write value
// back in, repeat. Rounds are capped by the largest possible number of
// dynamic writes in one candidate (Σ over threads of the per-run maximum
// write count): a readable value must be justified by an acyclic chain of
// distinct dynamic writes, so deeper derivations cannot occur. complete
// is false when a cap (values per address, runs per thread) was hit, in
// which case the candidate space may be under-approximated.
func computeDomains(p *program.Program, cfg *Config) (dom map[mem.Addr][]mem.Value, complete bool, err error) {
	addrs := p.Addresses()
	dom = make(map[mem.Addr][]mem.Value, len(addrs))
	for _, a := range addrs {
		dom[a] = []mem.Value{initValue(p, a)}
	}
	complete = true
	for round := 1; ; round++ {
		runs, overflow, err := enumerateRuns(p, dom, cfg)
		if err != nil {
			return nil, false, err
		}
		if overflow {
			return dom, false, nil
		}
		writeCap := 0
		changed := false
		for t := range runs {
			maxW := runs[t].cutMaxW
			for _, run := range runs[t].runs {
				w := 0
				for i := range run {
					ev := &run[i]
					if !ev.fence && ev.kind.WritesMemory() {
						w++
						if addValue(dom, ev.addr, ev.data) {
							changed = true
						}
					}
				}
				maxW = max(maxW, w)
			}
			// Truncated prefixes never become candidates, but their
			// writes are genuinely executable and may be exactly what
			// another thread's spin loop is waiting to observe.
			for i := range runs[t].cutWrites {
				ev := &runs[t].cutWrites[i]
				if addValue(dom, ev.addr, ev.data) {
					changed = true
				}
			}
			writeCap += maxW
		}
		for _, a := range addrs {
			if len(dom[a]) > maxValuesPerAddr {
				return dom, false, nil
			}
		}
		if !changed || round >= writeCap {
			return dom, complete, nil
		}
	}
}

// addValue inserts v into addr's sorted domain, reporting change.
func addValue(dom map[mem.Addr][]mem.Value, a mem.Addr, v mem.Value) bool {
	d := dom[a]
	i := sort.Search(len(d), func(i int) bool { return d[i] >= v })
	if i < len(d) && d[i] == v {
		return false
	}
	dom[a] = slices.Insert(d, i, v)
	return true
}

// skeleton is one run combination plus initial writes: the fixed part of
// a candidate execution, over which rf and co are enumerated.
type skeleton struct {
	events []event
	// iw maps each address to its initial-write event id.
	iw map[mem.Addr]int
	// reads lists read-component event ids in enumeration order.
	reads []int
	// writesByAddr lists write-component event ids per address, the
	// initial write first, then in thread/po order.
	writesByAddr map[mem.Addr][]int
	// firstReal is the event id of the first non-IW event.
	firstReal int
}

// buildSkeleton assembles the event list for one choice of per-thread
// runs. Initial writes come first (co-minimal, po-unrelated), then each
// thread's events in program order.
func buildSkeleton(p *program.Program, combo [][]event) *skeleton {
	addrs := p.Addresses()
	sk := &skeleton{
		iw:           make(map[mem.Addr]int, len(addrs)),
		writesByAddr: make(map[mem.Addr][]int, len(addrs)),
	}
	for _, a := range addrs {
		id := len(sk.events)
		sk.iw[a] = id
		sk.writesByAddr[a] = append(sk.writesByAddr[a], id)
		sk.events = append(sk.events, event{
			proc:  mem.InitProc,
			index: len(sk.iw) - 1,
			kind:  mem.Write,
			addr:  a,
			data:  initValue(p, a),
		})
	}
	sk.firstReal = len(sk.events)
	for t, run := range combo {
		for i := range run {
			ev := run[i]
			ev.proc = t
			id := len(sk.events)
			sk.events = append(sk.events, ev)
			if ev.isRead() {
				sk.reads = append(sk.reads, id)
			}
			if !ev.fence && ev.kind.WritesMemory() {
				sk.writesByAddr[ev.addr] = append(sk.writesByAddr[ev.addr], id)
			}
		}
	}
	return sk
}
