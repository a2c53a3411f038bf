// Package sat decides most appears-SC queries in polynomial time by
// saturating a happens-before graph built from an observed result,
// instead of enumerating idealized interleavings.
//
// Given a program and one observed mem.Result, the decision procedure:
//
//  1. Replays each thread locally, feeding every read the value the
//     result observed for it. A thread's dynamic operation sequence is a
//     pure function of the values its reads return, so the replay
//     reconstructs the unique per-thread operation sequence any matching
//     SC execution must contain — and any mismatch (a missing, extra, or
//     address-inconsistent observation) is a definite rejection.
//  2. Builds an event graph: one node per dynamic memory operation plus
//     an initial pseudo-write, with program-order edges, and derives the
//     reads-from candidates of every read from the observed values.
//  3. Saturates to a fixpoint with edges that must hold in every SC
//     witness: program order; the final-state constraint (the
//     coherence-last write of each location must produce the observed
//     final value); and, for each read whose writer becomes unique, the
//     write-before-read edge plus the classic coherence and from-read
//     closure rules — if w is r's writer and some other same-location
//     write w2 happens-before r, then w2 precedes w; if w precedes w2,
//     then r precedes w2. A cycle is a definite rejection (every added
//     edge is necessary); RMWs are single read+write nodes, so
//     atomicity falls out of the same two rules.
//  4. Accepts only via a verified witness: when every read's writer is
//     resolved and every same-location write pair is ordered, a
//     topological order of the saturated graph is replayed on an SC
//     memory and checked against every observation and the final state.
//     Verifying sequential consistency of an arbitrary acyclic rf graph
//     is NP-complete in general (Gibbons & Korach), which is exactly why
//     acceptance requires the witness, never acyclicity alone.
//
// Everything in between — a read with several possible writers left at
// the fixpoint, an unordered write pair, a blown budget — returns
// Fallback, and scmatch.Decide hands that residue to the result-directed
// search. The verdicts are therefore sound in both directions: Accepted
// and Rejected never disagree with the exhaustive search
// (TestDecideAgreesWithSearch in internal/scmatch and
// TestSatFastVsEnumeration in internal/check pin this differentially).
package sat

import (
	"math/bits"
	"sync"

	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// Verdict classifies a decision.
type Verdict uint8

const (
	// Fallback: the polynomial procedure could not decide; the caller
	// must fall back to the search. Decision.Reason says why.
	Fallback Verdict = iota
	// Accepted: some SC interleaving reproduces the observed result (a
	// concrete witness order was constructed and verified).
	Accepted
	// Rejected: no SC interleaving reproduces the observed result (the
	// saturated graph of necessary edges is contradictory).
	Rejected
)

// String returns "fallback", "accepted" or "rejected".
func (v Verdict) String() string {
	switch v {
	case Accepted:
		return "accepted"
	case Rejected:
		return "rejected"
	default:
		return "fallback"
	}
}

// Reasons attached to Rejected decisions.
const (
	// ReasonReplay: the observation set is inconsistent with any dynamic
	// execution of the program — a read observation is missing, left
	// over, or names the wrong address for its program-order slot.
	ReasonReplay = "replay-mismatch"
	// ReasonNoWriter: some read observed a value no same-location write
	// (nor the initial state) supplies, or every candidate writer was
	// soundly excluded.
	ReasonNoWriter = "no-writer"
	// ReasonFinal: no write (or initial value) can be coherence-last and
	// still produce the observed final state of some location.
	ReasonFinal = "final-mismatch"
	// ReasonCycle: the necessary-edge graph has a cycle.
	ReasonCycle = "cycle"
)

// Reasons attached to Fallback decisions.
const (
	// ReasonAmbiguousRF: a read retains multiple possible writers at the
	// fixpoint.
	ReasonAmbiguousRF = "ambiguous-rf"
	// ReasonCoIncomplete: a pair of same-location writes is unordered at
	// the fixpoint, so no verified witness can be built.
	ReasonCoIncomplete = "co-incomplete"
	// ReasonTooLarge: the replayed result has more dynamic operations
	// than Config.MaxEvents.
	ReasonTooLarge = "too-large"
	// ReasonReplayBudget: a thread's replay exceeded its local-step or
	// operation budget (a runaway loop the observations cannot bound).
	ReasonReplayBudget = "replay-budget"
	// ReasonCanceled: the cooperative cancel hook fired.
	ReasonCanceled = "canceled"
	// ReasonWitness: defensive — the topological witness failed
	// verification (not expected to be reachable; accepting without the
	// check would be unsound, so the case falls back instead).
	ReasonWitness = "witness-invalid"
)

// Config bounds a decision.
type Config struct {
	// MaxEvents bounds the total dynamic memory operations (including
	// the init pseudo-write); beyond it the decision falls back. Zero
	// means DefaultMaxEvents.
	MaxEvents int
	// Cancel, when non-nil, is polled between saturation rounds and
	// periodically during replay; returning true abandons the decision
	// with Fallback/ReasonCanceled.
	Cancel func() bool
}

// DefaultMaxEvents bounds the event graph. Its closure takes
// 2·n·⌈n/64⌉ words for n events (two bit rows per node), about 4 MiB at
// the bound. Campaign results stay far below it, and the results that
// reach this size are ones the search cannot be left with: a
// 2,480-event handoff result under severe faults exhausts the search's
// state budget, while saturation decides it in milliseconds.
const DefaultMaxEvents = 4096

// cancelPollMask: replay polls Cancel every 256 memory operations,
// matching the ideal/scmatch convention. The register-only run between
// two polls is bounded by program.MaxLocalSteps.
const cancelPollMask = 255

// Decision is the outcome of Decide.
type Decision struct {
	Verdict Verdict
	// Reason explains a rejection or fallback; empty for Accepted.
	Reason string
	// Events is the event-graph size (dynamic memory operations + 1);
	// zero when replay never completed.
	Events int
}

func (c Config) maxEvents() int {
	if c.MaxEvents > 0 {
		return c.MaxEvents
	}
	return DefaultMaxEvents
}

// event is one node of the happens-before graph. Node 0 is the init
// pseudo-write (it writes every location's initial value); real events
// carry the (proc, index) identity the result's observations use.
type event struct {
	proc, index int
	kind        mem.Kind
	addr        mem.Addr
	loc         int       // dense index of addr (see saturator.locs)
	data        mem.Value // write-component value
	got         mem.Value // read-component value (from the observation)
}

func (e *event) reads() bool  { return e.kind.ReadsMemory() }
func (e *event) writes() bool { return e.kind.WritesMemory() }

// saturators recycles saturators, and with them every buffer a decision
// uses, across decisions. A pool rather than a cache per caller: the
// rows of a rare large query (about 4 MiB at DefaultMaxEvents) are
// released at the next garbage collection instead of staying pinned.
var saturators = sync.Pool{New: func() any { return new(saturator) }}

// Decide runs the polynomial appears-SC procedure for res on p.
func Decide(p *program.Program, res mem.Result, cfg Config) Decision {
	s := saturators.Get().(*saturator)
	s.p, s.res = p, res
	d := s.decide(cfg)
	s.p, s.res = nil, mem.Result{}
	saturators.Put(s)
	return d
}

// decide runs replay, saturation and the witness on s.p and s.res.
func (s *saturator) decide(cfg Config) Decision {
	if d, ok := s.replay(cfg); !ok {
		return d
	}
	s.build()
	if d, ok := s.saturate(cfg); !ok {
		return d
	}
	return s.witness()
}

// replay reconstructs into s.events the per-thread dynamic operation
// sequences the result dictates. It runs the interpreter's instruction
// semantics (program.Thread's RunLocal, program.Instr's WriteValue,
// register zero-init, per-thread memory-op indices counting every
// memory operation) but reads return observed values instead of memory
// contents. ok is false when replay itself decided (or fell back); the
// Decision is then meaningful.
//
// The observations are in (processor, index) order, and the replay asks
// for them in that order too, so one cursor walks them. It steps past
// the observations the replay does not ask for, which stay unconsumed;
// a read whose own observation is absent is rejected at that read.
func (s *saturator) replay(cfg Config) (Decision, bool) {
	// Slot 0 is the init pseudo-write.
	s.events = append(s.events[:0], event{proc: mem.InitProc, kind: mem.Write})
	obs := s.res.Reads
	at, consumed := 0, 0 // obs[:at] are consumed or passed over
	for tid := range s.p.Threads {
		th := &s.p.Threads[tid]
		var regs program.RegFile
		pc, nextIx := 0, 0
		for {
			next, halted, err := th.RunLocal(&regs, pc)
			if err != nil {
				return Decision{Verdict: Fallback, Reason: ReasonReplayBudget}, false
			}
			if halted {
				break
			}
			pc = next
			if cfg.Cancel != nil && len(s.events)&cancelPollMask == 0 && cfg.Cancel() {
				return Decision{Verdict: Fallback, Reason: ReasonCanceled}, false
			}
			in := th.Instrs[pc]
			if len(s.events) >= cfg.maxEvents() {
				return Decision{Verdict: Fallback, Reason: ReasonTooLarge}, false
			}
			// The write value is taken before the read component updates
			// Rd, as in the interpreter.
			ev := event{proc: tid, index: nextIx, kind: in.Op.MemKind(), addr: in.Addr, data: in.WriteValue(&regs)}
			nextIx++
			if ev.reads() {
				id := mem.OpID{Proc: tid, Index: ev.index}
				for at < len(obs) && obs[at].ID.Less(id) {
					at++
				}
				if at == len(obs) || obs[at].ID != id || obs[at].Addr != in.Addr {
					return Decision{Verdict: Rejected, Reason: ReasonReplay}, false
				}
				ev.got = obs[at].Value
				at++
				consumed++
				regs[in.Rd] = ev.got
			}
			s.events = append(s.events, ev)
			pc++
		}
	}
	if consumed != len(obs) {
		// Leftover observations name operations no execution of this
		// program performs (wrong thread, or an index past the replayed
		// thread's halt): no SC execution matches.
		return Decision{Verdict: Rejected, Reason: ReasonReplay}, false
	}
	return Decision{}, true
}

// saturator holds the event graph and its incremental transitive
// closure as flat bit matrices: row i of reach is i's strict descendant
// set, row i of pred its strict ancestor set, each w = ⌈n/64⌉ words.
// Both are maintained exactly on every edge insertion, so "u
// happens-before v in every witness" is bit v of reach's row u at all
// times, and the same-location rules are word ANDs against a
// location's write mask. Every slice is kept for the next decision and
// cleared by replay and build.
type saturator struct {
	p      *program.Program
	res    mem.Result
	events []event

	w           int      // words per row
	words       []uint64 // backs every row below
	reach, pred []uint64 // n rows each
	scratchA    []uint64 // ancestor side of an edge insertion
	scratchD    []uint64 // descendant side
	wmasks      []uint64 // one row per location: its writes, node 0 included
	cands       []uint64 // one row per read (in reads order): its remaining writer candidates

	// Locations get dense indices in first-touch order.
	locOf map[mem.Addr]int
	locs  []location
	reads []int // events with a read component

	// rf[r] is read r's resolved writer (-1 while ambiguous).
	rf []int
	// applied[r]: r's rf rules are fully applied under the current
	// closure.
	applied []bool

	cycle bool

	// The witness's scratch: ancestor counts, bucket starts and the
	// order (ints), and the SC memory it replays on.
	ints   []int
	memory []mem.Value
}

// location is one address the replayed events touch.
type location struct {
	init, final mem.Value // initial value; observed final (absent = 0, per mem.Result.Equal)
	written     bool      // some event writes it
}

// zeroed returns buf resized to n zero elements, reusing its array when
// it is large enough.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// build derives the graph of s.events: dense locations, the reads,
// writer masks, and program order's closure.
func (s *saturator) build() {
	n := len(s.events)
	s.w = (n + 63) / 64
	s.cycle = false
	if s.locOf == nil {
		s.locOf = make(map[mem.Addr]int)
	}
	clear(s.locOf)
	s.locs, s.reads = s.locs[:0], s.reads[:0]
	for i := 1; i < n; i++ {
		ev := &s.events[i]
		l, ok := s.locOf[ev.addr]
		if !ok {
			l = len(s.locs)
			s.locOf[ev.addr] = l
			s.locs = append(s.locs, location{init: s.p.Init[ev.addr], final: s.res.Final[ev.addr]})
		}
		ev.loc = l
		if ev.writes() {
			s.locs[l].written = true
		}
		if ev.reads() {
			s.reads = append(s.reads, i)
		}
	}
	s.words = zeroed(s.words, (2*n+2+len(s.locs)+len(s.reads))*s.w)
	words := s.words
	take := func(rows int) []uint64 {
		m := words[:rows*s.w]
		words = words[rows*s.w:]
		return m
	}
	s.reach, s.pred = take(n), take(n)
	s.scratchA, s.scratchD = take(1), take(1)
	s.wmasks, s.cands = take(len(s.locs)), take(len(s.reads))
	for l := range s.locs {
		setBit(s.wmask(l), 0)
	}
	for i := 1; i < n; i++ {
		if s.events[i].writes() {
			setBit(s.wmask(s.events[i].loc), i)
		}
	}
	s.rf = zeroed(s.rf, n)
	for i := range s.rf {
		s.rf[i] = -1
	}
	s.applied = zeroed(s.applied, n)
	// Program order, closed directly: init precedes every event, and
	// each event precedes the rest of its thread (replay appends each
	// thread's events contiguously, in index order).
	setRange(s.row(s.reach, 0), 1, n)
	for start := 1; start < n; {
		end := start + 1
		for end < n && s.events[end].proc == s.events[start].proc {
			end++
		}
		for i := start; i < end; i++ {
			setRange(s.row(s.reach, i), i+1, end)
			pr := s.row(s.pred, i)
			setBit(pr, 0)
			setRange(pr, start, i)
		}
		start = end
	}
}

// row is node i's row of the closure matrix m.
func (s *saturator) row(m []uint64, i int) []uint64 { return m[i*s.w : (i+1)*s.w] }

// wmask is location l's write-mask row.
func (s *saturator) wmask(l int) []uint64 { return s.wmasks[l*s.w : (l+1)*s.w] }

// cand is the candidate row of the i-th read (s.reads[i]).
func (s *saturator) cand(i int) []uint64 { return s.cands[i*s.w : (i+1)*s.w] }

func hasBit(row []uint64, i int) bool { return row[i>>6]&(1<<(uint(i)&63)) != 0 }

func setBit(row []uint64, i int) { row[i>>6] |= 1 << (uint(i) & 63) }

// setRange sets bits [lo, hi) of row.
func setRange(row []uint64, lo, hi int) {
	for lo < hi {
		k := lo >> 6
		m := ^uint64(0) << (uint(lo) & 63)
		if next := (k + 1) << 6; hi < next {
			m &= ^uint64(0) >> uint(next-hi)
		}
		row[k] |= m
		lo = (k + 1) << 6
	}
}

// intersects reports whether rows a and b share a member.
func intersects(a, b []uint64) bool {
	for k := range a {
		if a[k]&b[k] != 0 {
			return true
		}
	}
	return false
}

// meets reports whether rows a, b and c share a member.
func meets(a, b, c []uint64) bool {
	for k := range a {
		if a[k]&b[k]&c[k] != 0 {
			return true
		}
	}
	return false
}

// dataAt is the value write event w deposits into location l.
func (s *saturator) dataAt(w, l int) mem.Value {
	if w == 0 {
		return s.locs[l].init
	}
	return s.events[w].data
}

// addEdge inserts u -> v and updates the closure; it records a cycle in
// s.cycle (u == v, or v already reaches u) instead of inserting one.
func (s *saturator) addEdge(u, v int) {
	if u == v || hasBit(s.row(s.reach, v), u) {
		s.cycle = true
		return
	}
	if hasBit(s.row(s.reach, u), v) {
		return
	}
	// A = ancestors(u) ∪ {u}, D = descendants(v) ∪ {v}; every a ∈ A now
	// reaches every d ∈ D. The closure is transitive, so an ancestor of
	// v already reaches all of D and a descendant of u is already
	// reached by all of A: only A \ pred[v] and D \ reach[u] change, and
	// each needs only the other's remainder.
	pu, pv := s.row(s.pred, u), s.row(s.pred, v)
	ru, rv := s.row(s.reach, u), s.row(s.reach, v)
	for k := range s.scratchA {
		s.scratchA[k] = pu[k] &^ pv[k]
		s.scratchD[k] = rv[k] &^ ru[k]
	}
	setBit(s.scratchA, u)
	setBit(s.scratchD, v)
	s.orRows(s.reach, s.scratchA, s.scratchD)
	s.orRows(s.pred, s.scratchD, s.scratchA)
}

// orRows ors src into the row of m of every member of set.
func (s *saturator) orRows(m, set, src []uint64) {
	for k, word := range set {
		for word != 0 {
			dst := m[(k<<6|bits.TrailingZeros64(word))*len(src):][:len(src)]
			word &= word - 1
			for j, x := range src {
				dst[j] |= x
			}
		}
	}
}

// saturate derives writer candidates and runs the fixpoint. ok is false
// when the procedure decided (or fell back) before the witness stage.
func (s *saturator) saturate(cfg Config) (Decision, bool) {
	fail := func(verdict Verdict, reason string) (Decision, bool) {
		return Decision{Verdict: verdict, Reason: reason, Events: len(s.events)}, false
	}
	// Locations no write touches keep their initial value; an observed
	// final disagreeing with it (or naming a location the program never
	// writes) is unreachable by any execution.
	for a, v := range s.res.Final {
		if l, ok := s.locOf[a]; (!ok || !s.locs[l].written) && v != s.p.Init[a] {
			return fail(Rejected, ReasonFinal)
		}
	}
	// Writer candidates: same-location writes supplying the observed
	// value. An RMW cannot read from its own write (its read component
	// sees the pre-state), so w == r is excluded. For a location only
	// ever read, the init pseudo-write is the only possible writer.
	for i, r := range s.reads {
		ev := &s.events[r]
		c, found := s.cand(i), false
		for k, word := range s.wmask(ev.loc) {
			for word != 0 {
				w := k<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				if w != r && s.dataAt(w, ev.loc) == ev.got {
					setBit(c, w)
					found = true
				}
			}
		}
		if !found {
			return fail(Rejected, ReasonNoWriter)
		}
	}
	// Fixpoint: apply the final-state constraint, prune candidates, fix
	// unique writers and their closure rules until nothing changes. Every
	// round only adds necessary edges, so the loop is monotone and
	// terminates (the closure and the candidate sets are both bounded).
	for {
		if cfg.Cancel != nil && cfg.Cancel() {
			return fail(Fallback, ReasonCanceled)
		}
		changed := false
		// Final-state constraint, over the written locations in
		// first-touch order: prune coherence-last candidates to writes
		// that (a) supply the observed final value and (b) are not known
		// to precede another same-location write. A unique survivor must
		// be last: every other write precedes it.
		for l := range s.locs {
			if !s.locs[l].written {
				continue
			}
			wm := s.wmask(l)
			lastCands := 0
			lastW := -1
			for k, word := range wm {
				for word != 0 {
					w := k<<6 | bits.TrailingZeros64(word)
					word &= word - 1
					if s.dataAt(w, l) == s.locs[l].final && !intersects(s.row(s.reach, w), wm) {
						lastCands++
						lastW = w
					}
				}
			}
			if lastCands == 0 {
				return fail(Rejected, ReasonFinal)
			}
			if lastCands == 1 {
				for k, word := range wm {
					for word != 0 {
						w := k<<6 | bits.TrailingZeros64(word)
						word &= word - 1
						if w != lastW && !hasBit(s.row(s.reach, w), lastW) {
							s.addEdge(w, lastW)
							changed = true
						}
					}
				}
			}
		}
		if s.cycle {
			return fail(Rejected, ReasonCycle)
		}
		// Candidate pruning + unique-writer resolution.
		for i, r := range s.reads {
			ev := &s.events[r]
			if s.rf[r] >= 0 {
				if !s.applied[r] {
					changed = s.applyRFRules(r, s.rf[r], ev.loc) || changed
					s.applied[r] = true
				}
				continue
			}
			c := s.cand(i)
			left, w := 0, -1
			for k, word := range c {
				for word != 0 {
					b := bits.TrailingZeros64(word)
					word &= word - 1
					if s.excluded(r, k<<6|b, ev.loc) {
						c[k] &^= 1 << uint(b)
						changed = true
						continue
					}
					left, w = left+1, k<<6|b
				}
			}
			switch left {
			case 0:
				return fail(Rejected, ReasonNoWriter)
			case 1:
				s.rf[r] = w
				s.addEdge(w, r)
				s.applyRFRules(r, w, ev.loc)
				s.applied[r] = true
				changed = true
			}
		}
		if s.cycle {
			return fail(Rejected, ReasonCycle)
		}
		if !changed {
			break
		}
		// The closure may have grown; re-run every resolved read's rules
		// next round until they add nothing.
		clear(s.applied)
	}
	return Decision{}, true
}

// excluded reports whether w is soundly impossible as r's writer: the
// read already precedes w, or another write of r's location l is known
// to fall strictly between w and r (the closure is a strict order, so
// neither w nor r can be that write).
func (s *saturator) excluded(r, w, l int) bool {
	return hasBit(s.row(s.reach, r), w) || meets(s.row(s.reach, w), s.row(s.pred, r), s.wmask(l))
}

// applyRFRules adds the coherence (w2 hb r ⟹ w2 co-before w) and
// from-read (w co-before w2 ⟹ r before w2) edges for a resolved
// reads-from pair on location l; it reports whether the closure grew.
// Only the writes in wmask & (pred[r] &^ pred[w] | reach[w] &^ reach[r])
// can meet either premise, and the edges added here cannot make a
// premise newly true, so those are the only writes visited; each
// premise is still checked on the live closure.
func (s *saturator) applyRFRules(r, w, l int) bool {
	changed := false
	wm := s.wmask(l)
	rr, pr := s.row(s.reach, r), s.row(s.pred, r)
	rw, pw := s.row(s.reach, w), s.row(s.pred, w)
	for k := range wm {
		word := wm[k] & (pr[k]&^pw[k] | rw[k]&^rr[k])
		for word != 0 {
			w2 := k<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if w2 == w || w2 == r {
				continue
			}
			r2 := s.row(s.reach, w2)
			if hasBit(r2, r) && !hasBit(r2, w) {
				s.addEdge(w2, w)
				changed = true
			}
			if hasBit(rw, w2) && !hasBit(rr, w2) {
				s.addEdge(r, w2)
				changed = true
			}
		}
	}
	return changed
}

// witness finishes a saturation that found no contradiction: it demands
// full resolution (every read has one writer, every same-location write
// pair is ordered), orders the events by ancestor count, and replays
// that order on an SC memory against every observation and the final
// state. Anything unresolved — or a witness that fails verification —
// falls back to the search.
func (s *saturator) witness() Decision {
	fail := func(verdict Verdict, reason string) Decision {
		return Decision{Verdict: verdict, Reason: reason, Events: len(s.events)}
	}
	for _, r := range s.reads {
		if s.rf[r] < 0 {
			return fail(Fallback, ReasonAmbiguousRF)
		}
	}
	// Every write of a location must be ordered against every other:
	// its row of reach, its row of pred and itself cover the mask.
	for l := range s.locs {
		wm := s.wmask(l)
		for k, word := range wm {
			for word != 0 {
				w := k<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				rw, pw := s.row(s.reach, w), s.row(s.pred, w)
				for j := range wm {
					rest := wm[j] &^ rw[j] &^ pw[j]
					if j == k {
						rest &^= 1 << (uint(w) & 63)
					}
					if rest != 0 {
						return fail(Fallback, ReasonCoIncomplete)
					}
				}
			}
		}
	}
	// Replay the order on an SC memory.
	s.memory = zeroed(s.memory, len(s.locs))
	memory := s.memory
	for l := range s.locs {
		memory[l] = s.locs[l].init
	}
	for _, u := range s.order() {
		if u == 0 {
			continue // init values are pre-loaded
		}
		ev := &s.events[u]
		if ev.reads() && memory[ev.loc] != ev.got {
			return fail(Fallback, ReasonWitness)
		}
		if ev.writes() {
			memory[ev.loc] = ev.data
		}
	}
	// Final state must match over the touched locations, the program's
	// initialized ones and the observed ones (absent = 0 on either side).
	for l := range s.locs {
		if memory[l] != s.locs[l].final {
			return fail(Fallback, ReasonWitness)
		}
	}
	for a, v := range s.p.Init {
		if _, touched := s.locOf[a]; !touched && s.res.Final[a] != v {
			return fail(Fallback, ReasonWitness)
		}
	}
	for a, v := range s.res.Final {
		if _, touched := s.locOf[a]; !touched && s.p.Init[a] != v {
			return fail(Fallback, ReasonWitness)
		}
	}
	return Decision{Verdict: Accepted, Events: len(s.events)}
}

// order returns the events sorted by ancestor count, ties by id, with a
// counting sort. It is a linear extension of the closure: u → v puts u
// in pred[v] and pred[u] ⊆ pred[v] while u ∉ pred[u], so u has strictly
// fewer ancestors than v.
func (s *saturator) order() []int {
	n := len(s.events)
	s.ints = zeroed(s.ints, 3*n+1)
	anc, next, order := s.ints[:n], s.ints[n:2*n+1], s.ints[2*n+1:]
	for v := range anc {
		for _, x := range s.row(s.pred, v) {
			anc[v] += bits.OnesCount64(x)
		}
		next[anc[v]+1]++
	}
	for c := 1; c < n; c++ {
		next[c] += next[c-1]
	}
	for v, c := range anc {
		order[next[c]] = v
		next[c]++
	}
	return order
}
