package axiom

import (
	"errors"
	"fmt"

	"weakorder/internal/bitset"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// Stats reports what one model evaluation explored.
type Stats struct {
	// Runs counts the complete per-thread local runs enumerated against
	// the final value domains.
	Runs int
	// Skeletons counts run combinations assembled into event graphs.
	Skeletons int
	// Candidates counts complete rf/co assignments examined.
	Candidates int
	// Consistent counts candidates that satisfied every non-flag
	// constraint.
	Consistent int
	// Pruned counts search subtrees cut by a monotone constraint
	// violation on a partial candidate.
	Pruned int
	// SyncOrders counts complete synchronization-order linearizations
	// examined (zero unless the model mentions so).
	SyncOrders int
	// Steps counts search-tree nodes across rf, co and so enumeration.
	Steps int
	// Truncated reports that some local run hit the per-thread memory-op
	// budget and was discarded — the analogue of the operational
	// enumerator's skipped ErrTruncated paths.
	Truncated bool
	// Complete is false when a hard cap (values per address, runs per
	// thread, steps, candidates) was hit and results may be partial.
	Complete bool
}

// Verdict is the outcome of evaluating a model over a program.
type Verdict struct {
	// Outcomes maps mem.Result.Key() to the observable result of each
	// consistent candidate execution.
	Outcomes map[string]mem.Result
	// Flags counts, per flag constraint name, the consistent candidates
	// it marked (races under the bundled drf0 model).
	Flags map[string]int
	// Stats reports search effort and completeness.
	Stats Stats
}

// errBudget aborts the search when a step or candidate cap is hit.
var errBudget = errors.New("axiom: search budget exhausted")

// ErrCanceled reports that Config.Cancel asked the search to stop.
var ErrCanceled = errors.New("axiom: search canceled")

// cancelPollMask throttles Config.Cancel polling to every 256 search
// nodes; the hook typically reads a clock, too expensive per node.
const cancelPollMask = 255

// searcher enumerates the candidate executions of one program under one
// model and streams the consistent ones into the verdict.
type searcher struct {
	p         *program.Program
	m         *Model
	cfg       *Config
	wantFlags bool
	stopFlag  bool // stop the whole search once every flag has fired

	// Constraint partition, fixed per model: pruneCs are checked on
	// partial candidates (monotone, so a violation persists in every
	// completion), leafCs on complete rf/co candidates, soCs and
	// flagSoCs per synchronization-order linearization.
	pruneCs    []*Constraint
	leafCs     []*Constraint
	soCs       []*Constraint
	flagLeafCs []*Constraint
	flagSoCs   []*Constraint
	flagName   map[*Constraint]string
	needSO     bool

	verdict Verdict

	// Per-skeleton search state.
	sk      *skeleton
	ar      *relArena
	ev      *evaluator
	sets    map[string]*bitset.Set
	rels    map[string]*Rel
	rf      *Rel
	co      *Rel
	fr      *Rel
	srcs    [][]int // per read (by position in sk.reads): legal rf sources
	rfSrc   []int   // per read: chosen source event id
	coOrder map[mem.Addr][]int
	coIns   []coInsertion

	arenas map[int]*relArena
}

type coInsertion struct {
	addr mem.Addr
	w    int
}

func newSearcher(p *program.Program, m *Model, cfg *Config, wantFlags bool) *searcher {
	s := &searcher{
		p: p, m: m, cfg: cfg, wantFlags: wantFlags,
		stopFlag: wantFlags && cfg.StopWhenFlagged,
		flagName: make(map[*Constraint]string),
		arenas:   make(map[int]*relArena),
	}
	s.verdict.Outcomes = make(map[string]mem.Result)
	s.verdict.Flags = make(map[string]int)
	for i := range m.Constraints {
		c := &m.Constraints[i]
		so := m.mentionsSO(c.Expr)
		switch {
		case c.Flag && so:
			s.flagSoCs = append(s.flagSoCs, c)
		case c.Flag:
			s.flagLeafCs = append(s.flagLeafCs, c)
		case so:
			s.soCs = append(s.soCs, c)
		default:
			if m.prunable(c) {
				s.pruneCs = append(s.pruneCs, c)
			}
			s.leafCs = append(s.leafCs, c)
		}
		if c.Flag {
			name := c.As
			if name == "" {
				name = fmt.Sprintf("flag%d", i)
			}
			s.flagName[c] = name
			s.verdict.Flags[name] = 0
		}
	}
	// Synchronization orders must be enumerated when they decide
	// consistency, or when the caller wants so-dependent flags.
	s.needSO = len(s.soCs) > 0 || (wantFlags && len(s.flagSoCs) > 0)
	return s
}

// mentionsSO reports whether e references the primitive so, expanding
// let references.
func (m *Model) mentionsSO(e Expr) bool {
	switch e := e.(type) {
	case *Name:
		if e.Ident == "so" {
			return true
		}
		if def, ok := m.letDef(e.Ident); ok {
			return m.mentionsSO(def)
		}
		return false
	case *Bin:
		return m.mentionsSO(e.L) || m.mentionsSO(e.R)
	case *Post:
		return m.mentionsSO(e.E)
	case *Diag:
		return m.mentionsSO(e.S)
	}
	return false
}

func (s *searcher) arena(n int) *relArena {
	ar, ok := s.arenas[n]
	if !ok {
		ar = newRelArena(n)
		s.arenas[n] = ar
	}
	return ar
}

// run drives the whole search: value domains, per-thread runs, run
// combinations, and the rf/co/so enumeration per skeleton.
func (s *searcher) run() error {
	st := &s.verdict.Stats
	st.Complete = true
	dom, complete, err := computeDomains(s.p, s.cfg)
	if err != nil {
		return err
	}
	if !complete {
		st.Complete = false
	}
	runs, overflow, err := enumerateRuns(s.p, dom, s.cfg)
	if err != nil {
		return err
	}
	if overflow {
		st.Complete = false
	}
	for t := range runs {
		st.Runs += len(runs[t].runs)
		if runs[t].truncated {
			st.Truncated = true
		}
		if len(runs[t].runs) == 0 {
			// Every run of this thread was truncated: no complete
			// candidate exists (the operational oracles likewise skip
			// all truncated interleavings of such a program).
			return nil
		}
	}
	// Odometer over one run choice per thread.
	combo := make([][]event, len(runs))
	idx := make([]int, len(runs))
	for {
		for t := range runs {
			combo[t] = runs[t].runs[idx[t]]
		}
		if err := s.searchSkeleton(combo); err != nil {
			if errors.Is(err, errBudget) {
				st.Complete = false
				return nil
			}
			if errors.Is(err, errStop) {
				return nil
			}
			return err
		}
		t := len(idx) - 1
		for t >= 0 {
			idx[t]++
			if idx[t] < len(runs[t].runs) {
				break
			}
			idx[t] = 0
			t--
		}
		if t < 0 {
			return nil
		}
	}
}

// errStop ends the search early once every flag has fired (StopWhenFlagged).
var errStop = errors.New("axiom: search stopped")

// searchSkeleton enumerates rf and co over one run combination.
func (s *searcher) searchSkeleton(combo [][]event) error {
	sk := buildSkeleton(s.p, combo)
	s.verdict.Stats.Skeletons++
	s.sk = sk
	n := len(sk.events)
	ar := s.arena(n)
	s.ar = ar

	// Legal rf sources per read: same address, not the read itself, and
	// matching data when the read's value was pinned by local control or
	// data flow. A pinned value no write can supply makes the whole
	// skeleton infeasible.
	s.srcs = s.srcs[:0]
	for _, r := range sk.reads {
		rev := &sk.events[r]
		var cands []int
		for _, w := range sk.writesByAddr[rev.addr] {
			if w == r {
				continue
			}
			if rev.pinned && sk.events[w].data != rev.got {
				continue
			}
			cands = append(cands, w)
		}
		if len(cands) == 0 {
			return nil
		}
		s.srcs = append(s.srcs, cands)
	}

	sets, rels, owned := s.buildStatics(sk, ar)
	s.sets, s.rels = sets, rels
	defer func() {
		for _, r := range owned.rels {
			ar.PutRel(r)
		}
		for _, b := range owned.sets {
			ar.PutSet(b)
		}
	}()
	s.ev = newEvaluator(s.m, n, ar, sets, rels)

	s.rf = ar.Rel()
	s.co = ar.Rel()
	s.fr = ar.Rel()
	defer func() {
		ar.PutRel(s.rf)
		ar.PutRel(s.co)
		ar.PutRel(s.fr)
	}()

	s.rfSrc = resizeInts(s.rfSrc, len(sk.reads))
	s.coOrder = make(map[mem.Addr][]int, len(sk.iw))
	s.coIns = s.coIns[:0]
	for _, a := range s.p.Addresses() {
		s.coOrder[a] = append([]int(nil), sk.writesByAddr[a][:1]...)
		for _, w := range sk.writesByAddr[a][1:] {
			s.coIns = append(s.coIns, coInsertion{addr: a, w: w})
		}
	}
	return s.rfStep(0)
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

type staticOwned struct {
	rels []*Rel
	sets []*bitset.Set
}

// buildStatics computes the skeleton's primitive sets and fixed relations.
func (s *searcher) buildStatics(sk *skeleton, ar *relArena) (map[string]*bitset.Set, map[string]*Rel, *staticOwned) {
	n := len(sk.events)
	owned := &staticOwned{}
	set := func() *bitset.Set { b := ar.Set(); owned.sets = append(owned.sets, b); return b }
	rel := func() *Rel { r := ar.Rel(); owned.rels = append(owned.rels, r); return r }

	univ := set()
	univ.Fill()
	sets := map[string]*bitset.Set{
		"_": univ, "M": set(), "R": set(), "W": set(), "RMW": set(),
		"F": set(), "SYNC": set(), "IW": set(),
	}
	for i := range sk.events {
		ev := &sk.events[i]
		if ev.fence {
			sets["F"].Add(i)
			continue
		}
		sets["M"].Add(i)
		if ev.isRead() {
			sets["R"].Add(i)
		}
		if ev.isWrite() {
			sets["W"].Add(i)
		}
		if ev.proc == mem.InitProc {
			sets["IW"].Add(i)
			continue
		}
		if ev.kind == mem.SyncRMW {
			sets["RMW"].Add(i)
		}
		if ev.kind.IsSync() {
			sets["SYNC"].Add(i)
		}
	}

	po, loc, intr, ext, id := rel(), rel(), rel(), rel(), rel()
	// po: per-thread total order over the thread's events, fences
	// included; initial writes are po-unrelated to everything.
	byProc := map[int][]int{}
	byAddr := map[mem.Addr][]int{}
	for i := sk.firstReal; i < n; i++ {
		byProc[sk.events[i].proc] = append(byProc[sk.events[i].proc], i)
	}
	for i := range sk.events {
		if !sk.events[i].fence {
			byAddr[sk.events[i].addr] = append(byAddr[sk.events[i].addr], i)
		}
	}
	for _, evs := range byProc {
		for x := 0; x < len(evs); x++ {
			for y := x + 1; y < len(evs); y++ {
				po.Add(evs[x], evs[y])
			}
		}
	}
	for _, evs := range byAddr {
		for _, x := range evs {
			for _, y := range evs {
				loc.Add(x, y)
			}
		}
	}
	// int: same processor (initial writes form their own group); ext is
	// its complement over all event pairs.
	byProcAll := map[int][]int{}
	for i := range sk.events {
		p := sk.events[i].proc
		if sk.events[i].proc == mem.InitProc {
			p = mem.InitProc
		}
		byProcAll[p] = append(byProcAll[p], i)
	}
	for _, evs := range byProcAll {
		for _, x := range evs {
			for _, y := range evs {
				intr.Add(x, y)
			}
		}
	}
	ext.CrossInto(univ, univ)
	ext.DifferenceWith(intr)
	id.DiagInto(univ)

	rels := map[string]*Rel{"po": po, "loc": loc, "int": intr, "ext": ext, "id": id}
	return sets, rels, owned
}

// step accounts one search-tree node against the step budget and polls
// the cooperative cancellation hook.
func (s *searcher) step() error {
	s.verdict.Stats.Steps++
	if s.verdict.Stats.Steps > s.cfg.MaxSteps {
		return errBudget
	}
	if s.cfg.Cancel != nil && s.verdict.Stats.Steps&cancelPollMask == 1 && s.cfg.Cancel() {
		return ErrCanceled
	}
	return nil
}

// computeFR rebuilds fr = rf⁻¹ ; co \ id from the current partial rf and
// co: for each assigned read, every write coherence-after its source.
func (s *searcher) computeFR(upto int) {
	s.fr.Clear()
	for k := 0; k < upto; k++ {
		r := s.sk.reads[k]
		w := s.rfSrc[k]
		row := s.fr.Row(r)
		row.UnionWith(s.co.Row(w))
		row.Remove(r)
	}
}

// pruned reports whether a monotone constraint already fails on the
// current partial candidate; rfUpto is how many reads have sources.
func (s *searcher) pruned(rfUpto int) bool {
	if len(s.pruneCs) == 0 {
		return false
	}
	s.computeFR(rfUpto)
	s.ev.begin(s.rf, s.co, s.fr, nil)
	defer s.ev.end()
	for _, c := range s.pruneCs {
		if s.ev.violated(c) {
			s.verdict.Stats.Pruned++
			return true
		}
	}
	return false
}

// rfStep assigns a source to the k-th read and recurses; after the last
// read it moves to coherence insertion.
func (s *searcher) rfStep(k int) error {
	if k == len(s.sk.reads) {
		return s.coStep(0)
	}
	r := s.sk.reads[k]
	for _, w := range s.srcs[k] {
		if err := s.step(); err != nil {
			return err
		}
		s.rfSrc[k] = w
		s.rf.Add(w, r)
		ok := !s.pruned(k + 1)
		var err error
		if ok {
			err = s.rfStep(k + 1)
		}
		s.rf.Remove(w, r)
		if err != nil {
			return err
		}
	}
	return nil
}

// coStep inserts the k-th non-initial write into its address's coherence
// order at every position after the initial write, and recurses; after
// the last write the candidate is complete.
func (s *searcher) coStep(k int) error {
	if k == len(s.coIns) {
		return s.leaf()
	}
	ins := s.coIns[k]
	order := s.coOrder[ins.addr]
	for pos := 1; pos <= len(order); pos++ {
		if err := s.step(); err != nil {
			return err
		}
		// Splice w in at pos and add its coherence edges.
		for _, prev := range order[:pos] {
			s.co.Add(prev, ins.w)
		}
		for _, next := range order[pos:] {
			s.co.Add(ins.w, next)
		}
		next := make([]int, 0, len(order)+1)
		next = append(next, order[:pos]...)
		next = append(next, ins.w)
		next = append(next, order[pos:]...)
		s.coOrder[ins.addr] = next

		ok := !s.pruned(len(s.sk.reads))
		var err error
		if ok {
			err = s.coStep(k + 1)
		}

		s.coOrder[ins.addr] = order
		for _, prev := range order[:pos] {
			s.co.Remove(prev, ins.w)
		}
		for _, nxt := range order[pos:] {
			s.co.Remove(ins.w, nxt)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// leaf handles one complete rf/co candidate: final constraint checks,
// synchronization-order enumeration when the model needs it, flag
// evaluation, and outcome recording.
func (s *searcher) leaf() error {
	st := &s.verdict.Stats
	st.Candidates++
	if st.Candidates > s.cfg.MaxCandidates {
		return errBudget
	}
	s.computeFR(len(s.sk.reads))

	// All non-flag constraints that do not mention so, including the
	// prunable ones (cheap, and covers skeletons with no search nodes).
	s.ev.begin(s.rf, s.co, s.fr, nil)
	for _, c := range s.leafCs {
		if s.ev.violated(c) {
			s.ev.end()
			return nil
		}
	}
	fired := map[string]bool{}
	if s.wantFlags {
		for _, c := range s.flagLeafCs {
			if !s.ev.violated(c) {
				fired[s.flagName[c]] = true
			}
		}
	}
	s.ev.end()

	consistent := true
	if s.needSO {
		ok, err := s.enumerateSO(fired)
		if err != nil {
			return err
		}
		consistent = ok
	}
	if !consistent {
		return nil
	}
	st.Consistent++
	res := s.outcome()
	s.verdict.Outcomes[res.Key()] = res
	for name := range fired {
		s.verdict.Flags[name]++
	}
	if s.stopFlag {
		all := true
		for _, cnt := range s.verdict.Flags {
			if cnt == 0 {
				all = false
				break
			}
		}
		if all {
			return errStop
		}
	}
	return nil
}

// outcome extracts the candidate's observable mem.Result: each read's
// value (pinned, or its rf source's data) and the coherence-final value
// per address.
func (s *searcher) outcome() mem.Result {
	reads := make([]mem.ReadObservation, len(s.sk.reads))
	for k, r := range s.sk.reads {
		ev := &s.sk.events[r]
		v := ev.got
		if !ev.pinned {
			v = s.sk.events[s.rfSrc[k]].data
		}
		reads[k] = mem.ReadObservation{ID: mem.OpID{Proc: ev.proc, Index: ev.index}, Addr: ev.addr, Value: v}
	}
	final := make(map[mem.Addr]mem.Value, len(s.coOrder))
	for a, order := range s.coOrder {
		final[a] = s.sk.events[order[len(order)-1]].data
	}
	return mem.NewResult(reads, final)
}
