package weakorder_test

import (
	"strings"
	"testing"

	"weakorder"
)

// buildMP builds the synchronized message-passing program through the
// public API.
func buildMP(t *testing.T) *weakorder.Program {
	t.Helper()
	b := weakorder.NewProgram("mp")
	data, flag := b.Var("data"), b.Var("flag")
	p0 := b.Thread()
	p0.StoreImm(data, 42)
	p0.SyncStoreImm(flag, 1)
	p1 := b.Thread()
	p1.Label("spin")
	p1.SyncLoad(weakorder.R1, flag)
	p1.BeqImm(weakorder.R1, 0, "spin")
	p1.Load(weakorder.R0, data)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestQuickstartFlow(t *testing.T) {
	prog := buildMP(t)

	v, err := weakorder.CheckDRF0(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !v.DRF {
		t.Fatalf("message passing must obey DRF0: %v", v.Races)
	}

	res, err := weakorder.Simulate(prog, weakorder.MachineConfig{
		Policy:   weakorder.WODef2,
		Topology: weakorder.Network,
		Caches:   true,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ok, witness, err := weakorder.AppearsSC(prog, res.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || witness == nil {
		t.Fatal("DRF0 program on weakly ordered hardware must appear SC")
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	prog := buildMP(t)
	text := weakorder.FormatProgram(prog)
	back, err := weakorder.ParseProgram(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if back.NumThreads() != 2 {
		t.Fatal("round trip lost threads")
	}
}

func TestEnumerateSCAndOutcomes(t *testing.T) {
	b := weakorder.NewProgram("sb")
	x, y := b.Var("x"), b.Var("y")
	p0 := b.Thread()
	p0.StoreImm(x, 1)
	p0.Load(weakorder.R0, y)
	p1 := b.Thread()
	p1.StoreImm(y, 1)
	p1.Load(weakorder.R0, x)
	prog := b.MustBuild()

	n := 0
	if err := weakorder.EnumerateSC(prog, func(e *weakorder.Execution) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("enumerated %d executions, want 6", n)
	}

	out, err := weakorder.SCOutcomes(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("distinct outcomes = %d, want 3", len(out))
	}

	// Early stop.
	n = 0
	if err := weakorder.EnumerateSC(prog, func(e *weakorder.Execution) error {
		n++
		return weakorder.StopEnumeration
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("visited %d after stop, want 1", n)
	}
}

func TestDetectRacesPublic(t *testing.T) {
	prog := buildMP(t)
	e, err := weakorder.RunSC(prog, 3)
	if err != nil {
		t.Fatal(err)
	}
	if races := weakorder.DetectRaces(e, weakorder.DRF0); len(races) != 0 {
		t.Fatalf("unexpected races: %v", races)
	}
}

func TestParsePolicyAndList(t *testing.T) {
	for _, p := range weakorder.Policies() {
		got, err := weakorder.ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
}

func TestCheckModelRefined(t *testing.T) {
	// Publication through a read-only sync op violates the refined model
	// but the orthodox acquire/release pattern does not.
	prog := buildMP(t)
	v, err := weakorder.CheckModel(prog, weakorder.DRF0RO)
	if err != nil {
		t.Fatal(err)
	}
	if !v.DRF {
		t.Fatalf("acquire/release message passing must obey the refined model: %v", v.Races)
	}
}

func TestLitmusTextEndToEnd(t *testing.T) {
	src := `
program handoff
init lock=1
thread P0 {
  st x, #5
  sst lock, #0      # release
}
thread P1 {
spin:
  tas r0, lock
  bne r0, #0, spin  # acquire
  ld r1, x
}
`
	prog, err := weakorder.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	v, err := weakorder.CheckDRF0(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !v.DRF {
		t.Fatalf("handoff must be DRF0: %v", v.Races)
	}
	for _, pol := range []weakorder.Policy{weakorder.SC, weakorder.WODef1, weakorder.WODef2, weakorder.WODef2RO} {
		cfg := weakorder.MachineConfig{Policy: pol, Topology: weakorder.Network, Caches: true}
		res, err := weakorder.Simulate(prog, cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := prog.AddrOf("x")
		// P1's read of x must observe 5.
		found := false
		for _, op := range res.Exec.Ops {
			if op.Proc == 1 && op.Kind == weakorder.Read && op.Addr == x {
				found = true
				if op.Got != 5 {
					t.Errorf("%v: consumer read %d, want 5", pol, op.Got)
				}
			}
		}
		if !found {
			t.Errorf("%v: consumer read missing", pol)
		}
	}
}

func TestDocExampleRenders(t *testing.T) {
	prog := buildMP(t)
	if !strings.Contains(prog.String(), "sst flag") {
		t.Error("program disassembly missing sync store")
	}
}

func TestFacadeSnoopConfig(t *testing.T) {
	prog := buildMP(t)
	res, err := weakorder.Simulate(prog, weakorder.MachineConfig{
		Policy: weakorder.WODef2, Topology: weakorder.Bus, Caches: true, Snoop: true,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := weakorder.AppearsSC(prog, res.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("snoopy machine must keep the contract")
	}
}

func TestFacadeMigration(t *testing.T) {
	prog := buildMP(t)
	res, err := weakorder.Simulate(prog, weakorder.MachineConfig{
		Policy: weakorder.WODef2, Topology: weakorder.Network, Caches: true,
		ExtraProcs: 1,
		Migrations: []weakorder.Migration{{AtCycle: 10, From: 1, To: 2}},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := weakorder.AppearsSC(prog, res.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("migrated run must appear SC")
	}
}

// A negative processor count is a configuration error naming the field,
// not a run with one thread silently missing.
func TestFacadeRejectsNegativeExtraProcs(t *testing.T) {
	_, err := weakorder.Simulate(buildMP(t), weakorder.MachineConfig{
		Policy: weakorder.WODef2, Topology: weakorder.Network, Caches: true,
		ExtraProcs: -1,
	}, 3)
	if err == nil || !strings.Contains(err.Error(), "ExtraProcs") {
		t.Errorf("Simulate error = %v, want one naming ExtraProcs", err)
	}
}

func TestFacadeCondition(t *testing.T) {
	src := `
program cond
thread P0 {
  st x, #1
  ld r0, y
}
thread P1 {
  st y, #1
  ld r0, x
}
exists P0:r0=0 & P1:r0=0
`
	prog, err := weakorder.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Cond == nil {
		t.Fatal("condition not parsed")
	}
	res, err := weakorder.Simulate(prog, weakorder.MachineConfig{
		Policy: weakorder.SC, Topology: weakorder.Bus, Caches: true,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.CondHolds(prog) {
		t.Error("SC machine must not satisfy the SB condition")
	}
}

func TestFacadeRefinedModes(t *testing.T) {
	prog := buildMP(t)
	for _, mode := range []weakorder.SyncMode{weakorder.DRF0, weakorder.DRF0RO, weakorder.DRF0RA} {
		v, err := weakorder.CheckModel(prog, mode)
		if err != nil {
			t.Fatal(err)
		}
		if !v.DRF {
			t.Errorf("message passing must obey %v: %v", mode, v.Races)
		}
	}
}

// TestFacadeAxiomaticModels exercises the axiomatic layer end to end
// through the public API: bundled models load, a custom model parses,
// outcome sets match the operational SCOutcomes, the drf0 race flag
// matches CheckDRF0, and the engine differential agrees.
func TestFacadeAxiomaticModels(t *testing.T) {
	prog := buildMP(t)
	if names := weakorder.ModelNames(); len(names) != 4 {
		t.Fatalf("ModelNames() = %v, want 4 bundled models", names)
	}
	sc, err := weakorder.LoadModel("sc")
	if err != nil {
		t.Fatal(err)
	}
	// mp spins, so bound both sides identically.
	cfg := weakorder.AxiomConfig{MaxMemOpsPerThread: 6}
	axOuts, st, err := weakorder.AxiomOutcomes(prog, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete {
		t.Fatalf("axiomatic search incomplete: %+v", st)
	}
	if len(axOuts) == 0 {
		t.Fatal("axiomatic SC admitted no outcomes")
	}

	v, err := weakorder.AxiomCheck(prog, mustModel(t, "drf0"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v.Flags["race"] != 0 {
		t.Errorf("drf0 model flagged %d races on synchronized message passing", v.Flags["race"])
	}

	if _, err := weakorder.ParseModel("custom", "acyclic po | rf | co | fr as sc"); err != nil {
		t.Fatalf("ParseModel: %v", err)
	}

	res, err := weakorder.AxiomDiff(prog, weakorder.AxiomDiffConfig{MemOpsPerThread: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped {
		t.Fatalf("differential skipped: %s", res.SkipReason)
	}
	if !res.Agree() {
		t.Errorf("axiomatic engine disagrees with operational oracles: %s", res.String())
	}
}

func mustModel(t *testing.T, name string) *weakorder.MemoryModel {
	t.Helper()
	m, err := weakorder.LoadModel(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
