package axiom

import (
	"fmt"
	"testing"

	"weakorder/internal/drf"
	"weakorder/internal/hb"
	"weakorder/internal/ideal"
	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/metrics"
	"weakorder/internal/program"
	"weakorder/internal/scmatch"
)

// storeBuffering is the classic SB litmus test with plain accesses:
// each thread stores 1 to its own flag then loads the other's.
// Sequential consistency forbids both loads returning 0; TSO allows it
// unless each thread fences between its store and its load.
func storeBuffering(fenced bool) *program.Program {
	name := "sb"
	if fenced {
		name = "sb+fences"
	}
	b := program.NewBuilder(name)
	x, y := b.Var("x"), b.Var("y")
	t0 := b.Thread()
	t0.StoreImm(x, 1)
	if fenced {
		t0.Fence()
	}
	t0.Load(program.R0, y)
	t1 := b.Thread()
	t1.StoreImm(y, 1)
	if fenced {
		t1.Fence()
	}
	t1.Load(program.R0, x)
	return b.MustBuild()
}

// hasOutcome reports whether some outcome observes value v for the
// read with the given id.
func hasOutcome(outs map[string]mem.Result, id mem.OpID, v mem.Value) bool {
	for _, r := range outs {
		if obs, ok := r.Read(id); ok && obs.Value == v {
			_ = obs
			// Require the symmetric read too when present is the
			// caller's business; here one read suffices.
			return true
		}
	}
	return false
}

// bothZero reports whether some outcome has both threads' loads (the
// last read of each thread) observing zero — the SB "relaxed" result.
func bothZero(outs map[string]mem.Result) bool {
	for _, r := range outs {
		z := 0
		for _, obs := range r.Reads {
			if obs.Value == 0 {
				z++
			}
		}
		if z == len(r.Reads) && len(r.Reads) == 2 {
			return true
		}
	}
	return false
}

func TestStoreBufferingAcrossModels(t *testing.T) {
	sb := storeBuffering(false)
	cfg := Config{MaxMemOpsPerThread: 4}

	scOuts, st, err := Outcomes(sb, MustLoad("sc"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete {
		t.Fatal("sc search incomplete")
	}
	if len(scOuts) != 3 {
		t.Errorf("SC admits %d SB outcomes, want 3 (0/1, 1/0, 1/1)", len(scOuts))
	}
	if bothZero(scOuts) {
		t.Error("SC must forbid the SB both-zero outcome")
	}

	tsoOuts, _, err := Outcomes(sb, MustLoad("tso"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bothZero(tsoOuts) {
		t.Error("TSO must allow the SB both-zero outcome")
	}
	if len(tsoOuts) != 4 {
		t.Errorf("TSO admits %d SB outcomes, want 4", len(tsoOuts))
	}

	fencedOuts, _, err := Outcomes(storeBuffering(true), MustLoad("tso"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bothZero(fencedOuts) {
		t.Error("TSO with fences must forbid the SB both-zero outcome")
	}
	if len(fencedOuts) != 3 {
		t.Errorf("fenced TSO admits %d SB outcomes, want 3", len(fencedOuts))
	}
}

// messagePassingRA: sync flag handoff with a plain payload — the MP
// shape release–acquire promises to order.
func messagePassingRA(syncFlag bool) *program.Program {
	b := program.NewBuilder("mp")
	data, flag := b.Var("data"), b.Var("flag")
	t0 := b.Thread()
	t0.StoreImm(data, 1)
	if syncFlag {
		t0.SyncStoreImm(flag, 1)
	} else {
		t0.StoreImm(flag, 1)
	}
	t1 := b.Thread()
	if syncFlag {
		t1.SyncLoad(program.R0, flag)
	} else {
		t1.Load(program.R0, flag)
	}
	t1.Load(program.R1, data)
	return b.MustBuild()
}

// staleAfterFlag reports whether some outcome reads flag=1 but data=0.
func staleAfterFlag(outs map[string]mem.Result) bool {
	for _, r := range outs {
		flag := mem.Value(-1)
		data := mem.Value(-1)
		for _, obs := range r.Reads {
			switch obs.ID.Index {
			case 0:
				flag = obs.Value
			case 1:
				data = obs.Value
			}
		}
		if flag == 1 && data == 0 {
			return true
		}
	}
	return false
}

func TestMessagePassingUnderRA(t *testing.T) {
	cfg := Config{MaxMemOpsPerThread: 4}
	ra := MustLoad("ra")

	synced, st, err := Outcomes(messagePassingRA(true), ra, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete {
		t.Fatal("ra search incomplete")
	}
	if staleAfterFlag(synced) {
		t.Error("release–acquire must forbid stale data behind a sync flag")
	}
	plain, _, err := Outcomes(messagePassingRA(false), ra, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !staleAfterFlag(plain) {
		t.Error("release–acquire must allow stale data behind a plain flag")
	}
}

// longLocalRuns is one thread of two 6,001-step register-only countdown
// runs, each followed by a store: 12,002 local steps in all, but never
// more than 6,001 between two memory operations, so it stays inside the
// local-step bound.
func longLocalRuns() *program.Program {
	b := program.NewBuilder("long-local-runs")
	x := b.Var("x")
	th := b.Thread()
	for i, v := range []mem.Value{1, 2} {
		loop := fmt.Sprintf("count%d", i)
		th.LoadImm(program.R1, 3000)
		th.Label(loop)
		th.AddImm(program.R1, program.R1, -1)
		th.BneImm(program.R1, 0, loop)
		th.StoreImm(x, v)
	}
	return b.MustBuild()
}

// TestSCOutcomesMatchOperational cross-checks the axiomatic SC outcome
// set against scmatch.Outcomes (exhaustive idealized interleaving) on
// the litmus suite with matched per-thread budgets, and on
// longLocalRuns, whose local-step count must restart at each memory
// operation on both sides.
func TestSCOutcomesMatchOperational(t *testing.T) {
	sc := MustLoad("sc")
	for _, p := range append(litmus.All(), longLocalRuns()) {
		budget := litmusBudget(p.Name)
		t.Run(p.Name, func(t *testing.T) {
			axOuts, st, err := Outcomes(p, sc, Config{MaxMemOpsPerThread: budget})
			if err != nil {
				t.Fatal(err)
			}
			if !st.Complete {
				t.Fatalf("axiomatic search incomplete: %+v", st)
			}
			opOuts, err := scmatch.Outcomes(p, ideal.EnumConfig{
				Interp:        ideal.Config{MaxMemOpsPerThread: budget},
				SkipTruncated: true,
				Reduce:        true,
			})
			if err != nil {
				t.Fatal(err)
			}
			diffOutcomeSets(t, axOuts, opOuts)
		})
	}
}

func diffOutcomeSets(t *testing.T, ax map[string]mem.Result, op map[string]*mem.Execution) {
	t.Helper()
	for k := range ax {
		if _, ok := op[k]; !ok {
			t.Errorf("axiomatic-only outcome %q", k)
		}
	}
	for k := range op {
		if _, ok := ax[k]; !ok {
			t.Errorf("operational-only outcome %q", k)
		}
	}
}

// litmusBudget picks a per-thread memory-op budget per litmus program:
// small enough to keep spin loops enumerable, large enough to cover the
// longest straight-line thread.
func litmusBudget(name string) int {
	switch name {
	case "mp", "mp-racy-spin":
		return 6
	case "critsec-2p-1r":
		// One lock acquisition is 4 ops (TAS, load, store, unlock);
		// budget 7 admits up to 3 failed TAS retries while keeping the
		// candidate space enumerable under the default step cap.
		return 7
	default:
		return 8
	}
}

// TestDRF0FlagMatchesOperational cross-checks the drf0 model's race
// flag against drf.Check on the litmus suite with matched budgets.
func TestDRF0FlagMatchesOperational(t *testing.T) {
	drf0 := MustLoad("drf0")
	for _, p := range litmus.All() {
		budget := litmusBudget(p.Name)
		t.Run(p.Name, func(t *testing.T) {
			v, err := Check(p, drf0, Config{MaxMemOpsPerThread: budget, StopWhenFlagged: true})
			if err != nil {
				t.Fatal(err)
			}
			if !v.Stats.Complete {
				t.Fatalf("axiomatic search incomplete: %+v", v.Stats)
			}
			opv, err := drf.Check(p, hb.SyncAll, drf.CheckConfig{Enum: ideal.EnumConfig{
				Interp:            ideal.Config{MaxMemOpsPerThread: budget},
				SkipTruncated:     true,
				Reduce:            true,
				PreserveSyncOrder: true,
			}})
			if err != nil {
				t.Fatal(err)
			}
			axRacy := v.Flags["race"] > 0
			if axRacy == opv.DRF {
				t.Errorf("race disagreement: axiomatic racy=%v, drf.Check DRF=%v", axRacy, opv.DRF)
			}
		})
	}
}

// TestMetricsExported checks the engine's counters land in a registry.
func TestMetricsExported(t *testing.T) {
	reg := metrics.NewRegistry()
	_, _, err := Outcomes(storeBuffering(false), MustLoad("sc"), Config{
		MaxMemOpsPerThread: 4,
		Metrics:            reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Counter("axiom.candidates").Value() == 0 {
		t.Error("axiom.candidates not exported")
	}
	if reg.Counter("axiom.consistent").Value() == 0 {
		t.Error("axiom.consistent not exported")
	}
	h := reg.Histogram("axiom.check.micros.SC", timingBounds).Hist()
	if h.Count == 0 {
		t.Error("per-model timing histogram not observed")
	}
}

// TestStatsPruning checks the monotone pruner actually cuts subtrees on
// a program with an unsatisfiable pinned spin.
func TestStatsPruning(t *testing.T) {
	_, st, err := Outcomes(litmus.Dekker(), MustLoad("sc"), Config{MaxMemOpsPerThread: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Pruned == 0 {
		t.Error("expected pruned subtrees on Dekker under SC")
	}
	if st.Candidates == 0 || st.Consistent == 0 {
		t.Errorf("implausible stats: %+v", st)
	}
}
