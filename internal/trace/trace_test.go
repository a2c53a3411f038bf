package trace

import (
	"fmt"
	"strings"
	"testing"

	"weakorder/internal/faults"
	"weakorder/internal/litmus"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
	"weakorder/internal/program"
)

func TestWriteOrder(t *testing.T) {
	e := &mem.Execution{
		Procs: 2,
		Ops: []mem.Op{
			{Proc: 0, Index: 0, Kind: mem.Write, Addr: 1, Data: 1},
			{Proc: 1, Index: 0, Kind: mem.Read, Addr: 1, Got: 1},
			{Proc: 1, Index: 1, Kind: mem.Write, Addr: 1, Data: 2},
			{Proc: 0, Index: 1, Kind: mem.SyncRMW, Addr: 2, Got: 0, Data: 9},
		},
	}
	wo := WriteOrder(e)
	if len(wo[1]) != 2 || wo[1][0].Data != 1 || wo[1][1].Data != 2 {
		t.Fatalf("write order for addr 1: %v", wo[1])
	}
	if len(wo[2]) != 1 {
		t.Fatalf("RMW must appear in write order: %v", wo[2])
	}
}

func TestCheckCoherenceAccepts(t *testing.T) {
	e := &mem.Execution{
		Procs: 3,
		Ops: []mem.Op{
			{Proc: 0, Index: 0, Kind: mem.Write, Addr: 1, Data: 1},
			{Proc: 1, Index: 0, Kind: mem.Read, Addr: 1, Got: 1},
			{Proc: 0, Index: 1, Kind: mem.Write, Addr: 1, Data: 2},
			{Proc: 1, Index: 1, Kind: mem.Read, Addr: 1, Got: 2},
			{Proc: 2, Index: 0, Kind: mem.Read, Addr: 1, Got: 2}, // may skip 1
		},
	}
	if err := CheckCoherence(e, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCoherenceRejectsBackwardsObservation(t *testing.T) {
	e := &mem.Execution{
		Procs: 2,
		Ops: []mem.Op{
			{Proc: 0, Index: 0, Kind: mem.Write, Addr: 1, Data: 1},
			{Proc: 0, Index: 1, Kind: mem.Write, Addr: 1, Data: 2},
			{Proc: 1, Index: 0, Kind: mem.Read, Addr: 1, Got: 2},
			{Proc: 1, Index: 1, Kind: mem.Read, Addr: 1, Got: 1}, // backwards!
		},
	}
	if err := CheckCoherence(e, nil); err == nil {
		t.Fatal("backwards observation must fail coherence")
	}
}

func TestCheckCoherenceInitialValue(t *testing.T) {
	e := &mem.Execution{
		Procs: 1,
		Ops: []mem.Op{
			{Proc: 0, Index: 0, Kind: mem.Read, Addr: 5, Got: 7},
		},
	}
	if err := CheckCoherence(e, map[mem.Addr]mem.Value{5: 7}); err != nil {
		t.Fatal(err)
	}
	if err := CheckCoherence(e, nil); err == nil {
		t.Fatal("reading 7 with initial 0 and no writes must fail")
	}
}

func TestCheckCoherenceRereadAfterAdvance(t *testing.T) {
	// A processor that observed position 1 may re-read it but not return
	// to position 0, even when values repeat.
	e := &mem.Execution{
		Procs: 2,
		Ops: []mem.Op{
			{Proc: 0, Index: 0, Kind: mem.Write, Addr: 1, Data: 5},
			{Proc: 0, Index: 1, Kind: mem.Write, Addr: 1, Data: 6},
			{Proc: 1, Index: 0, Kind: mem.Read, Addr: 1, Got: 6},
			{Proc: 1, Index: 1, Kind: mem.Read, Addr: 1, Got: 6}, // re-read OK
		},
	}
	if err := CheckCoherence(e, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRMWAtomicity(t *testing.T) {
	good := &mem.Execution{
		Procs: 2,
		Ops: []mem.Op{
			{Proc: 0, Index: 0, Kind: mem.SyncRMW, Addr: 1, Got: 0, Data: 1},
			{Proc: 1, Index: 0, Kind: mem.SyncRMW, Addr: 1, Got: 1, Data: 1},
		},
	}
	if err := CheckRMWAtomicity(good, nil); err != nil {
		t.Fatal(err)
	}
	bad := &mem.Execution{
		Procs: 2,
		Ops: []mem.Op{
			{Proc: 0, Index: 0, Kind: mem.SyncRMW, Addr: 1, Got: 0, Data: 1},
			{Proc: 1, Index: 0, Kind: mem.SyncRMW, Addr: 1, Got: 0, Data: 1}, // lost update
		},
	}
	if err := CheckRMWAtomicity(bad, nil); err == nil {
		t.Fatal("two TAS both reading 0 must fail atomicity")
	}
}

func TestCheckIndices(t *testing.T) {
	dup := &mem.Execution{
		Procs: 1,
		Ops: []mem.Op{
			{Proc: 0, Index: 0, Kind: mem.Write, Addr: 1},
			{Proc: 0, Index: 0, Kind: mem.Write, Addr: 2},
		},
	}
	if err := CheckIndices(dup); err == nil {
		t.Fatal("duplicate ids must fail")
	}
}

// TestInvariantsHoldOnAllMachineRuns is the integration payoff: every
// policy/topology run of every listed program satisfies coherence and
// RMW atomicity — even the racy ones (coherence is policy-independent).
func TestInvariantsHoldOnAllMachineRuns(t *testing.T) {
	for _, prog := range []*program.Program{
		litmus.CriticalSection(3, 2),
		litmus.TestAndTAS(2, 2),
		litmus.Coherence(),
		litmus.Dekker(),
	} {
		for _, pol := range policy.All() {
			for _, topo := range []machine.Topology{machine.TopoBus, machine.TopoNetwork} {
				cfg := machine.Config{Policy: pol, Topology: topo, Caches: true}
				if cfg.Validate() != nil {
					continue
				}
				for seed := int64(0); seed < 3; seed++ {
					res, err := machine.Run(prog, cfg, seed)
					if err != nil {
						t.Fatalf("%s %s: %v", prog.Name, cfg.Name(), err)
					}
					if err := CheckAll(res.Exec, prog.Init); err != nil {
						t.Errorf("%s %s seed %d: %v", prog.Name, cfg.Name(), seed, err)
					}
				}
			}
		}
	}
}

func TestTimelineRendering(t *testing.T) {
	// Nil events: the fault-free rendering of a plain run still carries
	// the cycle column.
	res, err := machine.Run(litmus.MessagePassing(), machine.Config{
		Policy: policy.WODef2, Topology: machine.TopoNetwork, Caches: true,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tl := Timeline(res.Exec, res.OpCycles, nil, 0)
	for _, want := range []string{"cycle", "P0", "P1", "W(data)=42", "Set(flag)=1", "R(data)->42",
		fmt.Sprintf("%d", res.OpCycles[len(res.OpCycles)-1])} {
		if !strings.Contains(tl, want) {
			t.Errorf("timeline missing %q:\n%s", want, tl)
		}
	}
	// Truncation.
	if short := Timeline(res.Exec, res.OpCycles, nil, 2); !strings.Contains(short, "truncated") {
		t.Error("truncated timeline must say so")
	}
}

func TestTimelineEventsInterleaving(t *testing.T) {
	plan := faults.Severe()
	res, err := machine.Run(litmus.MessagePassing(), machine.Config{
		Policy: policy.WODef2, Topology: machine.TopoNetwork, Caches: true,
		Faults: &plan, RecordFaultEvents: true,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FaultEvents) == 0 {
		t.Fatal("severe plan recorded no fault events; test is vacuous")
	}
	tl := Timeline(res.Exec, res.OpCycles, res.FaultEvents, 0)
	if !strings.Contains(tl, "cycle") {
		t.Errorf("timeline missing cycle column header:\n%s", tl)
	}
	for _, ev := range res.FaultEvents {
		if !strings.Contains(tl, ev.Kind.String()+" "+ev.Describe()) {
			t.Errorf("timeline missing fault event %v:\n%s", ev, tl)
		}
	}
	for _, want := range []string{"W(data)=42", "R(data)->42"} {
		if !strings.Contains(tl, want) {
			t.Errorf("timeline missing op %q:\n%s", want, tl)
		}
	}
	// Events are placed at (or before) the first commit row that follows
	// them: the rendering must not sort an event after an op committed
	// many cycles later than a later op... pin ordering: the line for the
	// first event precedes the line for the last committed op.
	first := strings.Index(tl, res.FaultEvents[0].Kind.String())
	lastOp := strings.LastIndex(tl, "R(data)->42")
	if first == -1 || lastOp == -1 || first > lastOp {
		t.Errorf("first fault event not interleaved before the final op:\n%s", tl)
	}
	// Mismatched opCycles falls back to appending events at the end.
	fallback := Timeline(res.Exec, nil, res.FaultEvents, 0)
	if !strings.Contains(fallback, res.FaultEvents[0].Kind.String()) {
		t.Error("fallback rendering lost the fault events")
	}
	// Truncation.
	short := Timeline(res.Exec, res.OpCycles, res.FaultEvents, 2)
	if !strings.Contains(short, "truncated") {
		t.Error("truncated timeline must say so")
	}
}
