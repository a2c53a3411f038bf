package runner

import (
	"testing"

	"weakorder/internal/litmus"
	"weakorder/internal/machine"
	"weakorder/internal/policy"
)

func TestRunnerReport(t *testing.T) {
	tc := litmus.Classic()[0] // SB
	rep, err := RunOn(tc.Prog, machine.Config{
		Policy: policy.Unconstrained, Topology: machine.TopoBus, Caches: true,
	}, Config{Seeds: 10, Forbidden: tc.Forbidden})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 10 {
		t.Fatalf("runs = %d", rep.Runs)
	}
	if rep.ForbiddenRuns == 0 || rep.NonSCRuns == 0 {
		t.Errorf("unconstrained bus SB must show forbidden outcomes: %+v", rep)
	}
	if rep.String() == "" {
		t.Error("empty report")
	}

	repSC, err := RunOn(tc.Prog, machine.Config{
		Policy: policy.SC, Topology: machine.TopoBus, Caches: true,
	}, Config{Seeds: 10, Forbidden: tc.Forbidden})
	if err != nil {
		t.Fatal(err)
	}
	if repSC.NonSCRuns != 0 || repSC.ForbiddenRuns != 0 {
		t.Errorf("SC machine must be clean: %+v", repSC)
	}
}

// TestRunnerSpinLoopsOnSlowNetwork: on a slow network the DRF0 mp and
// Figure 3 programs spin many times before their flag reads succeed, so
// an observed result can carry far more dynamic operations per thread
// than a bounded outcome enumeration reaches. An SC machine must still
// report every run as SC, and Figure 3 must classify at all.
func TestRunnerSpinLoopsOnSlowNetwork(t *testing.T) {
	cfg := machine.Config{
		Policy: policy.SC, Topology: machine.TopoNetwork, Caches: true,
		NetBase: 40, NetJitter: 10,
	}
	rep, err := RunOn(litmus.MessagePassing(), cfg, Config{Seeds: 30})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 30 || rep.NonSCRuns != 0 {
		t.Errorf("mp on an SC machine: %d of %d runs non-SC, want 0", rep.NonSCRuns, rep.Runs)
	}
	fig3 := cfg
	fig3.Policy = policy.WODef2
	if _, err := RunOn(litmus.Figure3(), fig3, Config{Seeds: 4}); err != nil {
		t.Errorf("Figure 3: %v", err)
	}
}
