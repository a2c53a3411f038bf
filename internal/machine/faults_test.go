package machine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"weakorder/internal/faults"
	"weakorder/internal/gen"
	"weakorder/internal/litmus"
	"weakorder/internal/policy"
	"weakorder/internal/scmatch"
)

func faultCfg(plan faults.Plan) Config {
	return Config{
		Policy:   policy.WODef2,
		Topology: TopoNetwork,
		Caches:   true,
		Faults:   &plan,
	}
}

// faultMarks lists the instants on a run's "faults" timeline track as
// "cycle name", in recording order.
func faultMarks(t *testing.T, res *RunResult) []string {
	t.Helper()
	b, err := res.Timeline.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   uint64            `json:"ts"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	tid := -1
	var out []string
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Args["name"] == "faults":
			tid = ev.Tid
		case ev.Ph == "i" && ev.Tid == tid:
			out = append(out, fmt.Sprintf("%d %s", ev.Ts, ev.Name))
		}
	}
	if tid < 0 {
		t.Fatal("faulted run's timeline has no faults track")
	}
	return out
}

// Same (seed, plan) must replay byte-identically: same committed
// execution, same cycle count, same fault decisions in the same order.
func TestFaultsDeterministicReplay(t *testing.T) {
	p := gen.RaceFree(gen.RaceFreeConfig{
		Procs: 3, Locks: 2, SharedPerLock: 2, Sections: 2, OpsPerSection: 2,
	}, 5)
	cfg := faultCfg(faults.Severe())
	cfg.Timeline = true

	a := mustRun(t, p, cfg, 42)
	b := mustRun(t, p, cfg, 42)
	if !reflect.DeepEqual(a.Result, b.Result) {
		t.Fatal("same seed+plan produced different results")
	}
	if a.Stats.Cycles != b.Stats.Cycles {
		t.Fatalf("same seed+plan produced different cycle counts: %d vs %d", a.Stats.Cycles, b.Stats.Cycles)
	}
	if *a.FaultStats != *b.FaultStats {
		t.Fatalf("same seed+plan produced different fault stats:\n%+v\n%+v", *a.FaultStats, *b.FaultStats)
	}
	at, err := a.Timeline.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	bt, err := b.Timeline.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(at, bt) {
		t.Fatal("same seed+plan produced different timelines")
	}
	fs := a.FaultStats
	if fs.Drops == 0 && fs.Dups == 0 && fs.Delays == 0 {
		t.Fatal("severe plan injected nothing; test is vacuous")
	}
	marks := faultMarks(t, a)
	if want := fs.Drops + fs.Dups + fs.Delays + fs.Retries; uint64(len(marks)) != want {
		t.Fatalf("faults track holds %d instants, want one per decision (%d): %+v", len(marks), want, *fs)
	}

	// A different machine seed must drive a different fault stream.
	diverged := false
	for seed := int64(43); seed < 48 && !diverged; seed++ {
		c := mustRun(t, p, cfg, seed)
		diverged = !reflect.DeepEqual(marks, faultMarks(t, c))
	}
	if !diverged {
		t.Fatal("five different seeds replayed the identical fault decisions")
	}
}

// Satellite 3b: with retry enabled, dropped requests are never lost —
// every faulted run of a DRF0 program completes and still appears SC
// (Definition 2 holds on the hardened protocol under faults).
func TestFaultsDropWithRetryNeverLosesRequests(t *testing.T) {
	shapes := []gen.RaceFreeConfig{
		{Procs: 2, Locks: 1, SharedPerLock: 2, Sections: 2, OpsPerSection: 2},
		{Procs: 3, Locks: 2, SharedPerLock: 1, Sections: 2, OpsPerSection: 2},
	}
	var drops, retries uint64
	for si, shape := range shapes {
		for seed := int64(0); seed < 8; seed++ {
			p := gen.RaceFree(shape, seed+int64(si)*37)
			res, err := Run(p, faultCfg(faults.Severe()), seed*13+1)
			if err != nil {
				t.Fatalf("%s seed %d under severe faults: %v", p.Name, seed, err)
			}
			m, err := scmatch.Matches(p, res.Result, scmatch.Config{})
			if err != nil {
				t.Fatalf("scmatch: %v", err)
			}
			if !m.OK {
				t.Errorf("%s seed %d: faulted run does not appear SC:\n%v", p.Name, seed, res.Result)
			}
			drops += res.FaultStats.Drops
			for _, cs := range res.Stats.Caches {
				retries += cs.Retries
			}
		}
	}
	if drops == 0 {
		t.Fatal("severe plan dropped nothing across 16 runs; test is vacuous")
	}
	if retries == 0 {
		t.Fatal("drops occurred but no retries fired; recovery untested")
	}
}

// Satellite 3c: with every request duplicated, directory state
// transitions are applied exactly once — program semantics are unchanged
// and the directory reports absorbed duplicates.
func TestFaultsDuplicationNeverDoubleApplies(t *testing.T) {
	plan := faults.Plan{Dup: 1}
	var absorbed uint64
	for seed := int64(0); seed < 6; seed++ {
		p := gen.RaceFree(gen.RaceFreeConfig{
			Procs: 2, Locks: 2, SharedPerLock: 2, Sections: 2, OpsPerSection: 2,
		}, seed)
		res, err := Run(p, faultCfg(plan), seed+3)
		if err != nil {
			t.Fatalf("%s seed %d under dup=1: %v", p.Name, seed, err)
		}
		m, err := scmatch.Matches(p, res.Result, scmatch.Config{})
		if err != nil {
			t.Fatalf("scmatch: %v", err)
		}
		if !m.OK {
			t.Errorf("%s seed %d: duplicated run does not appear SC:\n%v", p.Name, seed, res.Result)
		}
		if res.FaultStats.Dups == 0 {
			t.Fatalf("%s seed %d: dup=1 duplicated nothing", p.Name, seed)
		}
		for _, ds := range res.Stats.Dirs {
			absorbed += ds.Duplicates
		}
	}
	if absorbed == 0 {
		t.Fatal("directories absorbed no duplicates despite dup=1")
	}
}

// Protected message classes must be exempt: a plan that only drops would
// otherwise lose replies and wedge even with retry (retry re-requests,
// the directory absorbs the duplicate, and no new reply is generated for
// an already-served transaction id... unless replies are protected).
func TestFaultsNeverTouchReplies(t *testing.T) {
	cfg := faultCfg(faults.Plan{Drop: 0.5, MaxExtraDelay: 8})
	cfg.Timeline = true
	p := litmus.MessagePassing()
	res := mustRun(t, p, cfg, 9)
	marks := faultMarks(t, res)
	if len(marks) == 0 {
		t.Fatal("drop=0.5 marked no decisions; test is vacuous")
	}
	for _, mk := range marks {
		// "cycle KIND MSG SRC->DST ..."
		switch msg := strings.Fields(mk)[2]; msg {
		case "GetS", "GetX", "SyncRead", "PutX":
		default:
			t.Fatalf("fault injected into protected message class %q: %s", msg, mk)
		}
	}
}

// With retry disabled (the deliberately broken protocol), a total-drop
// plan must wedge — and the watchdog must return a structured
// LivenessReport naming the stuck processors and lines, not an opaque
// string.
func TestBrokenRetryYieldsLivenessReport(t *testing.T) {
	plan := faults.Plan{Drop: 1, DisableRetry: true}
	cfg := faultCfg(plan)
	cfg.MaxCycles = 20_000
	p := litmus.MessagePassing()
	_, err := Run(p, cfg, 7)
	if err == nil {
		t.Fatal("total drop with retry disabled completed; expected a watchdog death")
	}
	var le *LivenessError
	if !errors.As(err, &le) {
		t.Fatalf("watchdog death is not a *LivenessError: %v", err)
	}
	r := le.Report
	if r.Cycles != 20_000 {
		t.Errorf("report cycles = %d, want 20000", r.Cycles)
	}
	if len(r.Procs) == 0 {
		t.Fatal("liveness report names no processors")
	}
	if len(r.Stalled()) == 0 {
		t.Error("liveness report shows no stalled processor despite total drop")
	}
	pending := false
	for _, lp := range r.Procs {
		if len(lp.Pending) > 0 || len(lp.Writebacks) > 0 {
			pending = true
		}
	}
	if !pending {
		t.Error("liveness report shows no pending lines despite dropped requests")
	}
	if r.FaultStats == nil || r.FaultStats.Drops == 0 {
		t.Error("liveness report carries no fault stats despite total drop")
	}
	if r.String() == "" || le.Error() == "" {
		t.Error("empty liveness rendering")
	}
}

// Retry exhaustion must surface in the report when requests keep dying.
func TestRetryExhaustionReported(t *testing.T) {
	plan := faults.Plan{Drop: 1}
	cfg := faultCfg(plan)
	cfg.MaxCycles = 400_000
	cfg.RetryTimeout = 16
	cfg.RetryMax = 3
	p := litmus.MessagePassing()
	_, err := Run(p, cfg, 11)
	var le *LivenessError
	if !errors.As(err, &le) {
		t.Fatalf("total drop did not produce a LivenessError: %v", err)
	}
	exhausted := false
	for _, lp := range le.Report.Procs {
		if len(lp.Exhausted) > 0 {
			exhausted = true
		}
	}
	if !exhausted {
		t.Error("no retry-exhausted lines in report despite RetryMax=3 under total drop")
	}
}

// Fault plans are rejected on configurations with no message layer to
// fault or no retry protocol to recover with.
func TestFaultConfigValidation(t *testing.T) {
	plan := faults.Mild()
	bad := []Config{
		{Policy: policy.SC, Topology: TopoNetwork, Caches: false, Faults: &plan},
		{Policy: policy.WODef2, Topology: TopoBus, Caches: true, Snoop: true, Faults: &plan},
		{Policy: policy.WODef2, Topology: TopoNetwork, Caches: true, Faults: &faults.Plan{Drop: 1.5}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated despite illegal fault setup", i)
		}
	}
	ok := faultCfg(faults.None())
	ok.Caches = false
	ok.Policy = policy.SC
	if err := ok.Validate(); err != nil {
		t.Errorf("disabled (None) plan rejected on no-cache config: %v", err)
	}
}
