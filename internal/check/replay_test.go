package check

import (
	"strings"
	"testing"

	"weakorder/internal/faults"
	"weakorder/internal/lang"
	"weakorder/internal/litmus"
	"weakorder/internal/program"
)

// replayEntry builds a corpus entry of the given kind for p on WO-Def2
// with network and caches (jitter 20) at machine seed 3, round-tripping
// the program through the litmus format as LoadCorpus would.
func replayEntry(t *testing.T, kind string, p *program.Program, plan *faults.Plan) CorpusEntry {
	t.Helper()
	text := lang.Format(p)
	return CorpusEntry{
		Name: kind + "-" + p.Name,
		Report: ViolationReport{
			Kind:        kind,
			Program:     p.Name,
			Config:      ConfigDesc{Policy: "WO-Def2", Topology: "network", Caches: true, NetJitter: 20, Faults: plan},
			MachineSeed: 3,
			Litmus:      text,
		},
		Prog: mustParse(t, text),
	}
}

// TestReplayFailureBranches drives Replay into each branch that reports
// a broken contract. Two branches have no case here: an SC-policy or
// Definition 2 result that stops appearing SC, and a worker panic that
// recurs, each need a real simulator bug to reach.
func TestReplayFailureBranches(t *testing.T) {
	regsOnly := mustParse(t, `program regs-only

thread P0 {
  addi r1, r1, #1
}
`)
	cases := []struct {
		name  string
		entry CorpusEntry
		want  []string // substrings of the error besides the entry name; nil: replay passes
	}{
		{
			name:  "liveness-regressed",
			entry: replayEntry(t, KindLiveness, litmus.MessagePassing(), &faults.Plan{Drop: 1}),
			want:  []string{"seed 3", "has regressed", "stalled"},
		},
		{
			name:  "liveness-demonstration-still-wedges",
			entry: replayEntry(t, KindLiveness, litmus.MessagePassing(), &faults.Plan{Drop: 1, DisableRetry: true}),
		},
		{
			name:  "liveness-demonstration-no-longer-wedges",
			entry: replayEntry(t, KindLiveness, regsOnly, &faults.Plan{Drop: 1, DisableRetry: true}),
			want:  []string{"seed 3", "retry-disabled demonstration no longer wedges"},
		},
		{
			name:  "definition2-wedges",
			entry: replayEntry(t, KindDefinition2, litmus.MessagePassing(), &faults.Plan{Drop: 1}),
			want:  []string{"seed 3", "watchdog", "stalled"},
		},
		{
			name:  "definition2-racy",
			entry: replayEntry(t, KindDefinition2, litmus.MessagePassingRacy(), nil),
			want:  []string{"no longer obeys DRF0"},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := Replay(tc.entry, 1)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("replay failed: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("replay passed, want an error naming %q", tc.want)
			}
			for _, w := range append([]string{tc.entry.Name}, tc.want...) {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("replay error lacks %q:\n%v", w, err)
				}
			}
		})
	}
}
