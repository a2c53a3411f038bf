package check

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"weakorder/internal/faults"
	"weakorder/internal/machine"
	"weakorder/internal/metrics"
	"weakorder/internal/policy"
)

// TestWorkerPanicIsolation injects a panic on every WO-Def2 run and
// asserts the campaign absorbs all of them: each panic becomes a
// KindWorkerPanic violation with a stack and a shrunk reproducer, the
// (program, config) pair is quarantined, and every other configuration
// still completes normally.
func TestWorkerPanicIsolation(t *testing.T) {
	cfg := smallCampaign(21)
	cfg.Fault = PanicFault(policy.WODef2)
	cfg.CorpusDir = t.TempDir()
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// WO-Def2 runs cached-only on both topologies: one panic per
	// (program, topology), the remaining seeds quarantined.
	want := s.Programs * 2
	if s.WorkerPanics != want {
		t.Fatalf("WorkerPanics = %d, want %d", s.WorkerPanics, want)
	}
	if len(s.Violations) != want {
		t.Fatalf("got %d violations, want %d panic reports", len(s.Violations), want)
	}
	for _, v := range s.Violations {
		if v.Kind != KindWorkerPanic {
			t.Fatalf("unexpected %s violation (panics must not misreport as contract violations)", v.Kind)
		}
		if !strings.Contains(v.Stack, "injected worker panic") {
			t.Errorf("panic report lacks the panic message in its stack:\n%s", v.Stack)
		}
		if v.Outcome != "panic" {
			t.Errorf("panic report outcome = %q, want \"panic\"", v.Outcome)
		}
		if v.Litmus == "" {
			t.Error("panic report carries no reproducer program")
		}
	}
	// The healthy part of the matrix must have run in full: every
	// non-WO-Def2 sim present and oracle-adjudicated.
	healthy := 0
	for _, row := range s.Coverage {
		if row.Policy != policy.WODef2.String() {
			healthy += row.Sims
		}
	}
	if wantHealthy := s.Programs * (s.Configs - 2); healthy != wantHealthy {
		t.Fatalf("healthy configs ran %d sims, want %d — a panic starved unrelated work", healthy, wantHealthy)
	}
	if got := s.Metrics().Counters["check.panic.recovered"]; got != uint64(want) {
		t.Fatalf("check.panic.recovered = %d, want %d", got, want)
	}
	// Panic reproducers land in the corpus and replay clean (the
	// injected hook is absent on replay).
	entries, err := LoadCorpus(cfg.CorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no panic reproducers written to the corpus")
	}
	for _, e := range entries {
		if err := Replay(e, 1); err != nil {
			t.Errorf("panic reproducer replay: %v", err)
		}
	}
}

// TestWorkerPanicDeterministic: recovered panics must not cost the
// campaign its worker-count invariance.
func TestWorkerPanicDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full campaigns; skipped in -short")
	}
	cfg := smallCampaign(22)
	cfg.Fault = PanicFault(policy.WODef2)
	cfg.Workers = 1
	s1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	s2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := s1.JSON()
	j2, _ := s2.JSON()
	if string(j1) != string(j2) {
		t.Fatalf("panicky summaries differ across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", j1, j2)
	}
}

// TestCheckDeadlineSkips runs with an already-expired deadline: every
// oracle decision must be abandoned cooperatively and recorded as a
// skip — no hangs, no violations, no verdicts invented.
func TestCheckDeadlineSkips(t *testing.T) {
	cfg := smallCampaign(23)
	cfg.CheckDeadline = time.Nanosecond
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Violations) != 0 {
		t.Fatalf("deadline skips produced %d violations; a skipped check must not adjudicate", len(s.Violations))
	}
	if s.Oracle.Queries != 0 {
		t.Fatalf("oracle answered %d queries under a 1ns deadline", s.Oracle.Queries)
	}
	if s.Sims != s.Programs*s.Configs {
		t.Fatalf("sims = %d, want %d (simulations themselves are not deadline-bound)", s.Sims, s.Programs*s.Configs)
	}
	if s.DeadlineSkips == 0 || len(s.Skips) != s.DeadlineSkips {
		t.Fatalf("DeadlineSkips = %d with %d records", s.DeadlineSkips, len(s.Skips))
	}
	stages := map[string]int{}
	for _, sk := range s.Skips {
		stages[sk.Stage]++
		if sk.Reason != "deadline" {
			t.Errorf("skip reason %q, want deadline", sk.Reason)
		}
	}
	if stages["oracle"] == 0 || stages["classify"] == 0 {
		t.Fatalf("expected both oracle and classify skips, got %v", stages)
	}
	m := s.Metrics()
	if m.Counters["check.deadline.skips"] != uint64(s.DeadlineSkips) {
		t.Fatalf("check.deadline.skips = %d, want %d", m.Counters["check.deadline.skips"], s.DeadlineSkips)
	}
	if m.Counters[metrics.Labeled("check.skips_total", "stage", "oracle")] == 0 ||
		m.Counters[metrics.Labeled("check.skips_total", "stage", "classify")] == 0 {
		t.Fatalf("per-stage labeled skip counters missing: %v", m.Counters)
	}
}

// TestCheckDeadlineOffIsReproducible: with deadlines disabled the
// Summary must carry no skip records at all (the reproducibility
// contract documented on CheckDeadline).
func TestCheckDeadlineOffIsReproducible(t *testing.T) {
	s, err := Run(smallCampaign(24))
	if err != nil {
		t.Fatal(err)
	}
	if s.DeadlineSkips != 0 || len(s.Skips) != 0 {
		t.Fatalf("deadline-free campaign recorded %d skips", len(s.Skips))
	}
}

// TestBudgetOverrunIsSkip: a search that exhausts its state budget is
// no verdict. In the faults-severe golden campaign, program 22 (handoff,
// DRF0 by construction) observes a 2,465-read result on network+caches
// under SC that sat hands on as too-large and the search gives up on. It
// must be one oracle-stage budget skip, counted once: in
// Oracle.BudgetExceeded, not in DeadlineSkips, and not as a query.
func TestBudgetOverrunIsSkip(t *testing.T) {
	if testing.Short() {
		t.Skip("a 32-program campaign under severe faults; skipped in -short")
	}
	severe := faults.Severe()
	s, err := Run(CampaignConfig{
		Seed: 1, Programs: 32, SeedsPerConfig: 1,
		Policies:   []policy.Kind{policy.SC, policy.WODef2},
		Topologies: []machine.Topology{machine.TopoNetwork},
		Faults:     &severe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Skips) != 1 {
		t.Fatalf("got %d skips, want the one budget skip: %+v", len(s.Skips), s.Skips)
	}
	sk := s.Skips[0]
	if sk.ProgramIndex != 22 || sk.Config.Policy != policy.SC.String() || !sk.Config.Caches ||
		sk.MachineSeed != 1212620709172861362 || sk.Stage != "oracle" || sk.Reason != "budget" {
		t.Errorf("skip %+v, want program 22 on network+caches/SC at seed 1212620709172861362, oracle, budget", sk)
	}
	if s.Oracle.BudgetExceeded != 1 || s.DeadlineSkips != 0 {
		t.Errorf("budgetExceeded = %d, deadlineSkips = %d; want 1 and 0", s.Oracle.BudgetExceeded, s.DeadlineSkips)
	}
	if s.Oracle.Queries != s.Sims-1 {
		t.Errorf("%d queries for %d sims: the skipped sim must not count as a query", s.Oracle.Queries, s.Sims)
	}
}

// testReport builds a small, valid violation report (with a parseable
// litmus body) for corpus-store tests.
func testReport(t *testing.T, idx int) ViolationReport {
	t.Helper()
	spec := generators()[0]
	p := spec.make(deriveSeed(99, uint64(idx), 0x67656e))
	return ViolationReport{
		Kind:         KindSCPolicy,
		Program:      p.Name,
		Generator:    spec.name,
		GenSeed:      1,
		ProgramIndex: idx,
		Config:       ConfigDesc{Policy: "SC", Topology: "bus", Caches: true},
		MachineSeed:  7,
		Outcome:      "x",
		Instructions: instructionCount(p),
		Litmus:       formatProgram(p),
	}
}

// TestCorpusChecksumRoundTrip: WriteViolation stamps a checksum and
// LoadCorpus verifies it.
func TestCorpusChecksumRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := WriteViolation(dir, testReport(t, 0)); err != nil {
		t.Fatal(err)
	}
	entries, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("loaded %d entries, want 1", len(entries))
	}
	if entries[0].Report.Checksum == "" {
		t.Fatal("written entry carries no checksum")
	}
	// Tamper with the stored report: load must now refuse it.
	jsonPath := filepath.Join(dir, corpusName(entries[0].Report)+".json")
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(b), `"machineSeed": 7`, `"machineSeed": 8`, 1)
	if tampered == string(b) {
		t.Fatal("tamper target not found in report JSON")
	}
	if err := os.WriteFile(jsonPath, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(dir); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("tampered corpus loaded without a checksum error (err=%v)", err)
	}
}

// TestRecoverCorpus exercises the recovery pass over every damage class:
// orphan temp debris, a corrupt report, an orphan .litmus, all
// quarantined while the valid entry survives.
func TestRecoverCorpus(t *testing.T) {
	dir := t.TempDir()
	if err := WriteViolation(dir, testReport(t, 0)); err != nil {
		t.Fatal(err)
	}
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(tmpPrefix+"sc-policy-p0009-SC.json-123", `{"torn`)
	write("sc-policy-p0007-SC.json", `{"kind":"sc-policy","litmus":"bogus`) // torn mid-write
	write("sc-policy-p0007-SC.litmus", "p0 { }\n")
	write("orphan-p0008-SC.litmus", "p0 { }\n")

	kept, quarantined, err := RecoverCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 1 {
		t.Fatalf("kept %d entries, want 1", kept)
	}
	if len(quarantined) != 3 {
		t.Fatalf("quarantined %v, want 3 entries", quarantined)
	}
	// The survivors load clean; the damage sits in quarantine/ for
	// post-mortem instead of being deleted.
	entries, err := LoadCorpus(dir)
	if err != nil {
		t.Fatalf("corpus still unloadable after recovery: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("loaded %d entries after recovery, want 1", len(entries))
	}
	for _, f := range []string{"sc-policy-p0007-SC.json", "sc-policy-p0007-SC.litmus", "orphan-p0008-SC.litmus"} {
		if _, err := os.Stat(filepath.Join(dir, quarantineDir, f)); err != nil {
			t.Errorf("%s not quarantined: %v", f, err)
		}
	}
	// Idempotent: a second pass finds nothing left to do.
	kept, quarantined, err = RecoverCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 1 || len(quarantined) != 0 {
		t.Fatalf("second recovery pass: kept=%d quarantined=%v, want 1/none", kept, quarantined)
	}
}

// TestCampaignRecoversCorpusOnStart: Run with a CorpusDir containing a
// torn entry quarantines it instead of failing the campaign or the
// post-campaign load.
func TestCampaignRecoversCorpusOnStart(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "sc-policy-p0001-SC.json"), []byte(`{"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := smallCampaign(25)
	cfg.CorpusDir = dir
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(dir); err != nil {
		t.Fatalf("corpus unloadable after campaign with recovery pass: %v", err)
	}
}
