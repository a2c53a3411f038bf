package check

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"weakorder/internal/lang"
	"weakorder/internal/machine"
	"weakorder/internal/policy"
	"weakorder/internal/program"
)

// testCampaign builds the campaign state Run would, for white-box tests
// of the worker's predicates (no interconnect faults, full-map
// directories).
func testCampaign(cfg CampaignConfig) *campaign {
	cfg = cfg.withDefaults()
	return &campaign{cfg: cfg, matrix: Matrix(cfg.Policies, cfg.Topologies)}
}

func mustParse(t *testing.T, text string) *program.Program {
	t.Helper()
	p, err := lang.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// oneLoad is DRF0 (one thread) and violates under CorruptReadFault.
const oneLoad = `program one-load
init x=0

thread P0 {
  ld r1, x
}
`

var wodef2Bus = machine.Config{Policy: policy.WODef2, Topology: machine.TopoBus, Caches: true, MaxCycles: campaignMaxCycles}

// TestShrinkBudgetRejectsSlowCandidate: a candidate that still violates
// but needs more than shrinkBudget(cycles) to finish is not a
// reproducer of a violation whose run took cycles; with the violating
// run's own length as the budget it is.
func TestShrinkBudgetRejectsSlowCandidate(t *testing.T) {
	// Each iteration issues a memory operation: register-only
	// instructions run within one processor step and cost no cycles.
	slow := mustParse(t, `program slow
init x=0 y=0

thread P0 {
  ld r1, x
loop:
  ld r2, y
  addi r3, r3, #1
  blt r3, #3000, loop
}
`)
	c := testCampaign(CampaignConfig{Fault: CorruptReadFault(policy.SC)})
	mcfg := machine.Config{Policy: policy.SC, Topology: machine.TopoBus, MaxCycles: campaignMaxCycles}
	const seed = 5
	res, err := machine.Run(slow, mcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	full := res.Stats.Cycles
	const short = 10
	if full <= shrinkBudget(short) {
		t.Fatalf("candidate finishes in %d cycles, within the %d-cycle budget of a %d-cycle run", full, shrinkBudget(short), short)
	}
	if c.violates(KindSCPolicy, mcfg, seed, short, newWorkerState())(slow) {
		t.Errorf("a candidate needing %d cycles reproduced a %d-cycle violation (budget %d)", full, short, shrinkBudget(short))
	}
	if !c.violates(KindSCPolicy, mcfg, seed, full, newWorkerState())(slow) {
		t.Errorf("the candidate did not reproduce a violation of its own length (%d cycles)", full)
	}
}

// TestCandidateDRFDeadlineNotStored: a classification the deadline cut
// short is no verdict, so the predicate memoizes nothing.
func TestCandidateDRFDeadlineNotStored(t *testing.T) {
	c := testCampaign(CampaignConfig{Fault: CorruptReadFault(policy.WODef2), CheckDeadline: time.Nanosecond})
	ws := newWorkerState()
	if c.violates(KindDefinition2, wodef2Bus, 1, 100, ws)(mustParse(t, oneLoad)) {
		t.Error("a candidate whose DRF0 check was skipped reproduced a Definition 2 violation")
	}
	if len(ws.drf) != 0 {
		t.Errorf("deadline-skipped classification stored: %v", ws.drf)
	}
}

// TestCandidateDRFMemoAnswers: the predicate answers a memoized
// candidate from the memo.
func TestCandidateDRFMemoAnswers(t *testing.T) {
	c := testCampaign(CampaignConfig{Fault: CorruptReadFault(policy.WODef2)})
	cand := mustParse(t, oneLoad)
	ws := newWorkerState()
	if !c.violates(KindDefinition2, wodef2Bus, 1, 100, ws)(cand) {
		t.Fatal("the DRF0 candidate does not reproduce the violation")
	}
	if drf, ok := ws.drf[formatProgram(cand)]; !ok || !drf {
		t.Fatalf("memo after one probe: %v", ws.drf)
	}
	ws = newWorkerState()
	ws.drf[formatProgram(cand)] = false
	if c.violates(KindDefinition2, wodef2Bus, 1, 100, ws)(cand) {
		t.Error("a candidate memoized as racy reproduced a Definition 2 violation")
	}
}

// TestCandidateDRFMemoMatchesClassify shrinks the campaign-shrink
// benchmark's matrix program by program on one worker state: after each
// program, every memoized verdict is what a fresh classification of its
// key says.
func TestCandidateDRFMemoMatchesClassify(t *testing.T) {
	c := testCampaign(CampaignConfig{
		Seed: 1, Programs: 20, SeedsPerConfig: 2,
		Policies: []policy.Kind{policy.WODef2, policy.SC},
		Fault:    CorruptReadFault(policy.WODef2),
	})
	ws := newWorkerState()
	stored := 0
	for idx := 0; idx < c.cfg.Programs; idx++ {
		if _, err := c.runProgram(idx, ws); err != nil {
			t.Fatal(err)
		}
		stored += len(ws.drf)
		for key, drf := range ws.drf {
			class, skip := c.classify(mustParse(t, key))
			if skip == "deadline" || (class == ClassDRF) != drf {
				t.Errorf("program %d: memo says DRF=%v, classify says %s (skip %q):\n%s", idx, drf, class, skip, key)
			}
		}
	}
	if stored == 0 {
		t.Fatal("no candidate classification was memoized")
	}
}

// TestCorpusKeepsEveryViolation: one program violating on two
// topologies and two machine seeds leaves one loadable corpus entry per
// violation.
func TestCorpusKeepsEveryViolation(t *testing.T) {
	dir := t.TempDir()
	s, err := Run(CampaignConfig{
		Seed:           1,
		Programs:       1, // racefree: DRF by construction
		SeedsPerConfig: 2,
		Policies:       []policy.Kind{policy.WODef2},
		Topologies:     []machine.Topology{machine.TopoBus, machine.TopoNetwork},
		CorpusDir:      dir,
		Fault:          CorruptReadFault(policy.WODef2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Violations) < 2 {
		t.Fatalf("want at least two violations of program 0, got %d", len(s.Violations))
	}
	entries, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(entries))
	for i, e := range entries {
		got[i] = fmt.Sprintf("%s/%d", e.Report.Config.Topology, e.Report.MachineSeed)
	}
	want := make([]string, len(s.Violations))
	for i, v := range s.Violations {
		want[i] = fmt.Sprintf("%s/%d", v.Config.Topology, v.MachineSeed)
	}
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("corpus entries %v, want one per violation %v", got, want)
	}
}

// TestClassifyLocalLoopIsSkip: a DRF0 check that stops on a thread's
// local-step bound is undecided, so classify names it. P0 reads x, which
// nothing writes, and then spins on the register forever.
func TestClassifyLocalLoopIsSkip(t *testing.T) {
	p := mustParse(t, `program local-loop
init x=0 y=0

thread P0 {
  ld r1, x
loop:
  beq r1, #0, loop
}

thread P1 {
  st y, #1
}
`)
	class, skip := testCampaign(CampaignConfig{}).classify(p)
	if class != ClassRacy || skip != "local-loop" {
		t.Errorf("classify = (%q, %q), want (%q, %q)", class, skip, ClassRacy, "local-loop")
	}
}
