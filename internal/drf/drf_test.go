package drf

import (
	"testing"

	"weakorder/internal/hb"
	"weakorder/internal/ideal"
	"weakorder/internal/litmus"
	"weakorder/internal/program"
)

func boundedCfg() CheckConfig {
	return CheckConfig{
		Enum: ideal.EnumConfig{
			Interp:        ideal.Config{MaxMemOpsPerThread: 12},
			SkipTruncated: true,
		},
	}
}

func TestDekkerIsNotDRF0(t *testing.T) {
	v, err := Check(litmus.Dekker(), hb.SyncAll, CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if v.DRF {
		t.Fatal("racy Dekker must violate DRF0")
	}
	if len(v.Races) == 0 || v.Witness == nil {
		t.Fatal("verdict must carry race witnesses")
	}
}

func TestDekkerSyncIsDRF0(t *testing.T) {
	v, err := Check(litmus.DekkerSync(), hb.SyncAll, CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.DRF {
		t.Fatalf("sync Dekker must obey DRF0; races: %v", v.Races)
	}
	if v.Executions == 0 {
		t.Fatal("no executions enumerated")
	}
}

func TestMessagePassingBoundedIsDRF0(t *testing.T) {
	v, err := Check(litmus.MessagePassingBounded(), hb.SyncAll, CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.DRF {
		t.Fatalf("synchronized message passing must obey DRF0; races: %v", v.Races)
	}
}

// TestRaceFreeReadsSeeLastWrite checks the idealized interpreter against
// Lemma 1's value condition: on every execution of a DRF0 program, each
// read returns the value of the hb-last write to its address.
func TestRaceFreeReadsSeeLastWrite(t *testing.T) {
	for _, p := range []*program.Program{litmus.DekkerSync(), litmus.MessagePassingBounded()} {
		stats, err := ideal.Enumerate(p, ideal.EnumConfig{}, func(it *ideal.Interp) error {
			return hb.BuildAugmented(it.Execution(), p.Init, hb.SyncAll).CheckReadsSeeLastWrite(p.Init)
		})
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if stats.Executions == 0 {
			t.Errorf("%s: no executions enumerated", p.Name)
		}
	}
}

func TestMessagePassingRacyViolatesDRF0(t *testing.T) {
	v, err := Check(litmus.MessagePassingRacy(), hb.SyncAll, CheckConfig{AllRaces: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.DRF {
		t.Fatal("unsynchronized message passing must violate DRF0")
	}
	// Both the data race on data and the race on flag must show up.
	addrs := make(map[string]bool)
	for _, r := range v.Races {
		addrs[r.A.Label] = true
	}
	if !addrs["data"] || !addrs["flag"] {
		t.Errorf("expected races on both data and flag, got %v", v.Races)
	}
}

func TestCriticalSectionIsDRF0(t *testing.T) {
	v, err := Check(litmus.CriticalSection(2, 1), hb.SyncAll, boundedCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !v.DRF {
		t.Fatalf("lock-protected counter must obey DRF0; races: %v", v.Races)
	}
	if v.Executions == 0 {
		t.Fatal("no executions enumerated")
	}
}

func TestRacyCounterViolatesDRF0(t *testing.T) {
	v, err := Check(litmus.RacyCounter(2, 1), hb.SyncAll, boundedCfg())
	if err != nil {
		t.Fatal(err)
	}
	if v.DRF {
		t.Fatal("unprotected counter must violate DRF0")
	}
}

func TestBarrierIsDRF0(t *testing.T) {
	v, err := Check(litmus.Barrier(2), hb.SyncAll, boundedCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !v.DRF {
		t.Fatalf("barrier program must obey DRF0; races: %v", v.Races)
	}
}

func TestTestAndTASUnderBothModes(t *testing.T) {
	// Test&TestAndSet obeys DRF0 proper.
	p := litmus.TestAndTAS(2, 1)
	v, err := Check(p, hb.SyncAll, boundedCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !v.DRF {
		t.Fatalf("Test&TAS must obey DRF0; races: %v", v.Races)
	}
	// And it also obeys the refined model: the ordering-carrying release
	// is the Unset (a sync write) and the acquire is the TAS (a sync RMW);
	// the read-only Tests carry no ordering duty for the data accesses.
	v2, err := Check(p, hb.SyncWriterOrdered, boundedCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !v2.DRF {
		t.Fatalf("Test&TAS must obey the refined model; races: %v", v2.Races)
	}
}

func TestReadOnlySyncPublicationViolatesRefinedModel(t *testing.T) {
	// Publication through a read-only sync op on the producer side:
	//   P0: W(data); SR(flag)   (Test cannot release)
	//   P1: SW(flag); R(data)
	// Under DRF0 proper the flag sync ops order the accesses... only if
	// the so edge direction helps; build it so it does: P0's SR completes
	// before P1's SW, giving SR -> SW so edge, hence W(data) hb R(data).
	// Under the refined model that edge is dropped: race.
	b := program.NewBuilder("ro-pub")
	data, flag := b.Var("data"), b.Var("flag")
	p0 := b.Thread()
	p0.StoreImm(data, 1)
	p0.SyncLoad(program.R0, flag)
	p1 := b.Thread()
	p1.SyncStoreImm(flag, 1)
	p1.Load(program.R1, data)
	p := b.MustBuild()

	v, err := Check(p, hb.SyncAll, CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Under DRF0 proper some interleavings order everything, but the
	// interleaving where P1 runs entirely first leaves W(data) and
	// R(data) unordered (SW before SR gives SW->SR, no path from W to R).
	if v.DRF {
		t.Fatal("expected a racy interleaving under DRF0 proper too")
	}
	v2, err := Check(p, hb.SyncWriterOrdered, CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if v2.DRF {
		t.Fatal("read-only publication must violate the refined model")
	}
}

func TestCheckExecutionFigure2(t *testing.T) {
	if races := CheckExecution(litmus.Figure2a(), nil, hb.SyncAll); len(races) != 0 {
		t.Errorf("Figure 2(a): races = %v, want none", races)
	}
	if races := CheckExecution(litmus.Figure2b(), nil, hb.SyncAll); len(races) == 0 {
		t.Error("Figure 2(b): expected races")
	}
}

func TestVerdictString(t *testing.T) {
	v := Verdict{DRF: true, Executions: 5}
	if v.String() == "" {
		t.Error("empty verdict string")
	}
	v2 := Verdict{DRF: false, Races: make([]hb.Race, 2), Executions: 3}
	if v2.String() == "" {
		t.Error("empty verdict string")
	}
}

func TestFigure3IsDRF0(t *testing.T) {
	v, err := Check(litmus.Figure3Work(1), hb.SyncAll, boundedCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !v.DRF {
		t.Fatalf("Figure 3 scenario must obey DRF0; races: %v", v.Races)
	}
}
