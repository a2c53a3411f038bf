package trace

import (
	"testing"

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
