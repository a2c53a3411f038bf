package sat

import (
	"math/rand"
	"slices"
	"testing"

	"weakorder/internal/gen"
	"weakorder/internal/ideal"
	"weakorder/internal/litmus"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
	"weakorder/internal/program"
)

// enumResults collects every distinct SC result of p.
func enumResults(t *testing.T, p *program.Program) []mem.Result {
	t.Helper()
	seen := make(map[string]bool)
	var out []mem.Result
	_, err := ideal.Enumerate(p, ideal.EnumConfig{
		Interp:        ideal.Config{MaxMemOpsPerThread: 16},
		SkipTruncated: true,
		MaxPaths:      200_000,
		Reduce:        true,
	}, func(it *ideal.Interp) error {
		r := mem.ResultOf(it.Execution())
		if k := r.Key(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: enumerate: %v", p.Name, err)
	}
	return out
}

// TestDecideAcceptsSCOutcomes feeds every enumerated SC outcome of the
// classic litmus suite to Decide: none may be Rejected (they are all
// reachable by construction), and every Accepted verdict is by
// definition witnessed. The suite's shapes resolve fully, so the
// accepted fraction must also be total here.
func TestDecideAcceptsSCOutcomes(t *testing.T) {
	for _, tc := range litmus.Classic() {
		for _, r := range enumResults(t, tc.Prog) {
			d := Decide(tc.Prog, r, Config{})
			if d.Verdict == Rejected {
				t.Errorf("%s: rejected SC-reachable result %s (%s)", tc.Name, r.Key(), d.Reason)
			}
			if d.Verdict != Accepted {
				t.Errorf("%s: fell back on %s (%s); litmus shapes should resolve", tc.Name, r.Key(), d.Reason)
			}
		}
	}
}

// TestDecideRejectsStoreBuffering pins the saturation rules on the
// canonical example: SB's forbidden outcome (both loads stale) must be
// definitely rejected — the init-rf from-read edges contradict program
// order, surfacing either as a cycle or as an emptied candidate set
// depending on rule application order.
func TestDecideRejectsStoreBuffering(t *testing.T) {
	p := litmus.SB()
	x, _ := p.AddrOf("x")
	y, _ := p.AddrOf("y")
	forbidden := mem.NewResult([]mem.ReadObservation{
		{ID: mem.OpID{Proc: 0, Index: 1}, Addr: y, Value: 0},
		{ID: mem.OpID{Proc: 1, Index: 1}, Addr: x, Value: 0},
	}, map[mem.Addr]mem.Value{x: 1, y: 1})
	d := Decide(p, forbidden, Config{})
	if d.Verdict != Rejected {
		t.Fatalf("SB forbidden outcome: got %s (%s), want rejected", d.Verdict, d.Reason)
	}
	if d.Reason != ReasonCycle && d.Reason != ReasonNoWriter {
		t.Errorf("SB forbidden outcome rejected for %q, want cycle or no-writer", d.Reason)
	}
}

// TestDecideReplayMismatch: observation sets that no dynamic execution
// of the program can produce are definite rejections — a missing
// observation, an extra one, and an address-inconsistent one.
func TestDecideReplayMismatch(t *testing.T) {
	p := litmus.MP2()
	x, _ := p.AddrOf("x")
	results := enumResults(t, p)
	base := results[0]

	missing := mem.Result{Final: base.Final}
	if d := Decide(p, missing, Config{}); d.Verdict != Rejected || d.Reason != ReasonReplay {
		t.Errorf("missing observations: got %s (%s), want rejected (%s)", d.Verdict, d.Reason, ReasonReplay)
	}

	ghost := mem.ReadObservation{ID: mem.OpID{Proc: 1, Index: 99}, Addr: x, Value: 0}
	extra := mem.NewResult(append(slices.Clone(base.Reads), ghost), base.Final)
	if d := Decide(p, extra, Config{}); d.Verdict != Rejected || d.Reason != ReasonReplay {
		t.Errorf("extra observation: got %s (%s), want rejected (%s)", d.Verdict, d.Reason, ReasonReplay)
	}

	wrongAddr := mem.Result{Reads: slices.Clone(base.Reads), Final: base.Final}
	for i := range wrongAddr.Reads {
		wrongAddr.Reads[i].Addr += 77
	}
	if d := Decide(p, wrongAddr, Config{}); d.Verdict != Rejected || d.Reason != ReasonReplay {
		t.Errorf("wrong address: got %s (%s), want rejected (%s)", d.Verdict, d.Reason, ReasonReplay)
	}
}

// TestDecideNoWriter: a read of a value no write supplies rejects.
func TestDecideNoWriter(t *testing.T) {
	p := litmus.MP2()
	results := enumResults(t, p)
	bad := mem.Result{Reads: slices.Clone(results[0].Reads), Final: results[0].Final}
	bad.Reads[0].Value = 424242
	d := Decide(p, bad, Config{})
	if d.Verdict != Rejected || d.Reason != ReasonNoWriter {
		t.Errorf("unwritable value: got %s (%s), want rejected (%s)", d.Verdict, d.Reason, ReasonNoWriter)
	}
}

// TestDecideReplayRejectsAtTheMissingRead: the replay rejects at the
// read whose observation is absent, not at an observation it passes
// over. Here an extra observation names thread 0's store at index 0; the
// load at index 1 still finds its own, and the replay then stops on the
// event budget or the local-step bound. Both are fallbacks: rejecting
// at the passed-over observation would turn them into verdicts.
func TestDecideReplayRejectsAtTheMissingRead(t *testing.T) {
	b := program.NewBuilder("store-load-spin")
	x := b.Var("x")
	th := b.Thread()
	th.StoreImm(x, 1)
	th.Load(program.R1, x)
	th.Label("spin").Jmp("spin")
	spin := b.MustBuild()

	b = program.NewBuilder("store-load-store")
	x = b.Var("x")
	th = b.Thread()
	th.StoreImm(x, 1)
	th.Load(program.R1, x)
	th.StoreImm(x, 2)
	long := b.MustBuild()

	res := mem.NewResult([]mem.ReadObservation{
		{ID: mem.OpID{Proc: 0, Index: 0}, Addr: x, Value: 0},
		{ID: mem.OpID{Proc: 0, Index: 1}, Addr: x, Value: 1},
	}, map[mem.Addr]mem.Value{x: 1})
	for _, tc := range []struct {
		p    *program.Program
		cfg  Config
		want string
	}{
		{spin, Config{}, ReasonReplayBudget},
		{long, Config{MaxEvents: 3}, ReasonTooLarge},
	} {
		if d := Decide(tc.p, res, tc.cfg); d.Verdict != Fallback || d.Reason != tc.want {
			t.Errorf("%s: got %s (%s), want fallback (%s)", tc.p.Name, d.Verdict, d.Reason, tc.want)
		}
	}
}

// TestDecideFinalMismatch: an observed final value no write supplies
// rejects without enumeration.
func TestDecideFinalMismatch(t *testing.T) {
	p := litmus.MP2()
	x, _ := p.AddrOf("x")
	results := enumResults(t, p)
	bad := mem.Result{Reads: results[0].Reads, Final: map[mem.Addr]mem.Value{x: 555}}
	d := Decide(p, bad, Config{})
	if d.Verdict != Rejected || d.Reason != ReasonFinal {
		t.Errorf("impossible final: got %s (%s), want rejected (%s)", d.Verdict, d.Reason, ReasonFinal)
	}
}

// ambiguousProgram has two writers of the same value racing with a
// reader: the reader's writer can never be resolved, so the decision
// must fall back rather than guess.
func ambiguousProgram() (*program.Program, mem.Result) {
	b := program.NewBuilder("ambiguous")
	x := b.Var("x")
	b.Thread().StoreImm(x, 1)
	b.Thread().StoreImm(x, 1)
	b.Thread().Load(program.R0, x)
	p := b.MustBuild()
	res := mem.NewResult([]mem.ReadObservation{
		{ID: mem.OpID{Proc: 2, Index: 0}, Addr: x, Value: 1},
	}, map[mem.Addr]mem.Value{x: 1})
	return p, res
}

// TestDecideAmbiguousFallsBack: duplicate-value writers leave the rf
// choice open; the decision reports the ambiguity instead of deciding.
func TestDecideAmbiguousFallsBack(t *testing.T) {
	p, res := ambiguousProgram()
	d := Decide(p, res, Config{})
	if d.Verdict != Fallback {
		t.Fatalf("ambiguous writers: got %s (%s), want fallback", d.Verdict, d.Reason)
	}
	if d.Reason != ReasonAmbiguousRF && d.Reason != ReasonCoIncomplete {
		t.Errorf("ambiguous writers: reason %q, want rf/co ambiguity", d.Reason)
	}
}

// TestDecideCancel: a firing cancel hook abandons the decision with the
// canceled fallback, never a verdict.
func TestDecideCancel(t *testing.T) {
	p := litmus.MP2()
	results := enumResults(t, p)
	d := Decide(p, results[0], Config{Cancel: func() bool { return true }})
	if d.Verdict != Fallback || d.Reason != ReasonCanceled {
		t.Errorf("canceled decision: got %s (%s), want fallback (%s)", d.Verdict, d.Reason, ReasonCanceled)
	}
}

// TestDecideMaxEvents: a result larger than the event budget falls
// back instead of building the graph.
func TestDecideMaxEvents(t *testing.T) {
	p := litmus.MP2()
	results := enumResults(t, p)
	d := Decide(p, results[0], Config{MaxEvents: 2})
	if d.Verdict != Fallback || d.Reason != ReasonTooLarge {
		t.Errorf("tiny event budget: got %s (%s), want fallback (%s)", d.Verdict, d.Reason, ReasonTooLarge)
	}
}

// TestDecideRMWAtomicity: two TAS operations on the same lock cannot
// both read 0 — RMW atomicity must fall out of the coherence/from-read
// rules with the RMW as a single node.
func TestDecideRMWAtomicity(t *testing.T) {
	b := program.NewBuilder("taspair")
	l := b.Var("l")
	b.Thread().TAS(program.R0, l)
	b.Thread().TAS(program.R0, l)
	p := b.MustBuild()
	bothZero := mem.NewResult([]mem.ReadObservation{
		{ID: mem.OpID{Proc: 0, Index: 0}, Addr: l, Value: 0},
		{ID: mem.OpID{Proc: 1, Index: 0}, Addr: l, Value: 0},
	}, map[mem.Addr]mem.Value{l: 1})
	if d := Decide(p, bothZero, Config{}); d.Verdict != Rejected {
		t.Errorf("both TAS read 0: got %s (%s), want rejected", d.Verdict, d.Reason)
	}
	oneWins := mem.NewResult([]mem.ReadObservation{
		{ID: mem.OpID{Proc: 0, Index: 0}, Addr: l, Value: 0},
		{ID: mem.OpID{Proc: 1, Index: 0}, Addr: l, Value: 1},
	}, map[mem.Addr]mem.Value{l: 1})
	if d := Decide(p, oneWins, Config{}); d.Verdict != Accepted {
		t.Errorf("serialized TAS pair: got %s (%s), want accepted", d.Verdict, d.Reason)
	}
}

// TestDecideReplayBudgetPerGap: the replay's local-step budget,
// program.MaxLocalSteps, bounds each register-only run between memory
// operations (program.Thread.RunLocal's count), not the thread's whole
// instruction count. A thread storing 1,700 times with six register-only
// instructions per iteration runs about 11,900 instructions but never
// more than six in a row; its SC result must be decided. A
// register-only loop that never reaches memory still falls back.
func TestDecideReplayBudgetPerGap(t *testing.T) {
	b := program.NewBuilder("long-store-loop")
	x := b.Var("x")
	th := b.Thread()
	th.Label("top")
	th.Store(x, program.R1)
	th.AddImm(program.R1, program.R1, 1)
	th.Nop().Nop().Nop().Nop()
	th.BltImm(program.R1, 1700, "top")
	p := b.MustBuild()
	var results []mem.Result
	if _, err := ideal.Enumerate(p, ideal.EnumConfig{}, func(it *ideal.Interp) error {
		results = append(results, mem.ResultOf(it.Execution()))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("one-thread program has %d SC results, want 1", len(results))
	}
	d := Decide(p, results[0], Config{})
	if d.Verdict != Accepted || d.Events != 1701 {
		t.Errorf("1,700-store loop: got %s (%s), %d events; want accepted, 1701 events", d.Verdict, d.Reason, d.Events)
	}

	b = program.NewBuilder("local-spin")
	b.Thread().Label("spin").Jmp("spin")
	spin := b.MustBuild()
	empty := mem.Result{Final: map[mem.Addr]mem.Value{}}
	if d := Decide(spin, empty, Config{}); d.Verdict != Fallback || d.Reason != ReasonReplayBudget {
		t.Errorf("register-only loop: got %s (%s), want fallback (%s)", d.Verdict, d.Reason, ReasonReplayBudget)
	}
}

// TestClosureExact: addEdge keeps reach and pred the exact transitive
// closure (and its transpose) of program order plus every inserted
// edge, refusing exactly the edges that would close a cycle. Sizes
// straddle the 64-bit word boundary.
func TestClosureExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 5, 63, 64, 65, 130} {
		events := make([]event, n)
		events[0] = event{proc: mem.InitProc, kind: mem.Write}
		for i := 1; i < n; i++ {
			events[i] = event{proc: (i - 1) * 3 / n, kind: mem.Write}
		}
		s := &saturator{p: &program.Program{}, events: events}
		s.build()
		// edge[u][v]: u -> v is a program-order or inserted edge.
		edge := make([][]bool, n)
		for u := range edge {
			edge[u] = make([]bool, n)
			for v := u + 1; v < n; v++ {
				edge[u][v] = u == 0 || events[u].proc == events[v].proc
			}
		}
		// reaches reports whether v is reachable from u over edge.
		reaches := func(u, v int) bool {
			seen := make([]bool, n)
			stack := []int{u}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for y := 0; y < n; y++ {
					if edge[x][y] && !seen[y] {
						seen[y] = true
						stack = append(stack, y)
					}
				}
			}
			return seen[v]
		}
		for step := 0; step < 4*n; step++ {
			u, v := rng.Intn(n), rng.Intn(n)
			wantCycle := u == v || reaches(v, u)
			s.cycle = false
			s.addEdge(u, v)
			if s.cycle != wantCycle {
				t.Fatalf("n=%d: addEdge(%d, %d) cycle = %v, want %v", n, u, v, s.cycle, wantCycle)
			}
			if !wantCycle {
				edge[u][v] = true
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want := reaches(u, v)
				if hasBit(s.row(s.reach, u), v) != want || hasBit(s.row(s.pred, v), u) != want {
					t.Fatalf("n=%d: closure differs at %d -> %d (want %v)", n, u, v, want)
				}
			}
		}
		// The witness's ancestor-count order lists every event once and
		// puts u before v for every closure pair u -> v.
		pos := make([]int, n)
		for i := range pos {
			pos[i] = -1
		}
		for i, v := range s.order() {
			if pos[v] >= 0 {
				t.Fatalf("n=%d: order lists %d twice", n, v)
			}
			pos[v] = i
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if hasBit(s.row(s.reach, u), v) && !(pos[u] >= 0 && pos[u] < pos[v]) {
					t.Fatalf("n=%d: order puts %d at %d and %d at %d, but %d -> %d", n, u, pos[u], v, pos[v], u, v)
				}
			}
		}
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestDecideAllocFree: a warm decision allocates nothing. The saturator
// and every buffer it fills come back from the pool, cleared. The query
// is BenchmarkSatFastPath's: a campaign-shaped lock program's observed
// machine result, which the fast path accepts.
func TestDecideAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	prog := gen.RaceFree(gen.RaceFreeConfig{
		Procs: 2, Locks: 1, SharedPerLock: 2, PrivatePerProc: 1,
		Sections: 1, OpsPerSection: 2, PrivateOps: 1,
	}, 3)
	res, err := machine.Run(prog, machine.Config{
		Policy: policy.SC, Topology: machine.TopoBus, Caches: true,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	decide := func() {
		if d := Decide(prog, res.Result, Config{}); d.Verdict != Accepted {
			t.Fatalf("lock-program query: got %s (%s), want accepted", d.Verdict, d.Reason)
		}
	}
	decide()
	if allocs := testing.AllocsPerRun(100, decide); allocs != 0 {
		t.Errorf("warm Decide allocated %.1f times per call, want 0", allocs)
	}
}
