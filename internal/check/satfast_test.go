package check

import (
	"errors"
	"sync"
	"testing"

	"weakorder/internal/ideal"
	"weakorder/internal/litmus"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/sat"
	"weakorder/internal/scmatch"
)

// satDecideCampaign runs the fast path exactly as scmatch.Decide does.
func satDecideCampaign(p *program.Program, r mem.Result) sat.Decision {
	return sat.Decide(p, r, sat.Config{})
}

// satAgree cross-checks one decided fast-path verdict against the
// result-directed search in its production configuration — unbounded
// interpreter, production state budget — the exact oracle the fast path
// preempts in scmatch.Decide. Budget-blown searches yield no reference
// verdict and are skipped: within its budget the search is exact, so
// every comparable pair must agree.
func satAgree(t *testing.T, name string, p *program.Program, r mem.Result) {
	t.Helper()
	d := satDecideCampaign(p, r)
	if d.Verdict == sat.Fallback {
		return
	}
	m, err := scmatch.Matches(p, r, scmatch.Config{MaxStates: oracleMatchMaxStates})
	if errors.Is(err, scmatch.ErrBudget) {
		return
	}
	if err != nil {
		t.Fatalf("%s: scmatch: %v", name, err)
	}
	if (d.Verdict == sat.Accepted) != m.OK {
		t.Errorf("%s: satfast %s (%s) disagrees with search %v on %s",
			name, d.Verdict, d.Reason, m.OK, r.Key())
	}
}

// TestSatFastVsEnumeration is the fast path's differential safety net:
// across the classic litmus suite and the full campaign generator mix,
// every verdict the polynomial saturation stage hands down (accept or
// reject — fallbacks excluded by construction) must agree with the
// exhaustive result-directed search. Results are drawn from the same
// three sources the campaign sees: enumerated SC outcomes (must never be
// rejected), corrupted variants (usually unreachable), and observed
// machine results from a well-behaved and a weakly ordered config. The
// test also enforces the fast path's reason to exist: at least 60% of
// the machine-observed generator-mix results must be decided without
// enumeration.
func TestSatFastVsEnumeration(t *testing.T) {
	for _, tc := range litmus.Classic() {
		if _, err := ideal.Enumerate(tc.Prog, oracleEnumConfig(), func(it *ideal.Interp) error {
			r := mem.ResultOf(it.Execution())
			if d := satDecideCampaign(tc.Prog, r); d.Verdict == sat.Rejected {
				t.Errorf("%s: satfast rejected SC-reachable result %s (%s)", tc.Name, r.Key(), d.Reason)
			}
			satAgree(t, tc.Name, tc.Prog, corrupt(r))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	specs := generators()
	perSpec := 52 // 4 specs x 52 = 208 programs, the campaign mix
	if testing.Short() {
		perSpec = 6
	}
	var (
		mu               sync.Mutex
		observed, solved int
	)
	t.Run("specs", func(t *testing.T) {
		for si, spec := range specs {
			si, spec := si, spec
			t.Run(spec.name, func(t *testing.T) {
				t.Parallel()
				for s := 0; s < perSpec; s++ {
					p := spec.make(deriveSeed(0xd1ff, uint64(si), uint64(s)))

					// A handful of enumerated SC outcomes: never rejectable,
					// and their corruptions must agree with the search.
					enumerated := 0
					if _, err := ideal.Enumerate(p, oracleEnumConfig(), func(it *ideal.Interp) error {
						if enumerated >= 4 {
							return nil
						}
						enumerated++
						r := mem.ResultOf(it.Execution())
						if d := satDecideCampaign(p, r); d.Verdict == sat.Rejected {
							t.Errorf("%s/%d: satfast rejected SC-reachable result %s (%s)",
								spec.name, s, r.Key(), d.Reason)
						}
						satAgree(t, spec.name, p, corrupt(r))
						return nil
					}); err != nil {
						t.Fatalf("%s/%d: enumerate: %v", spec.name, s, err)
					}

					// Machine-observed results: what campaign oracle queries
					// actually look like. These feed the decision-rate floor.
					for _, mc := range []machine.Config{
						{Policy: policy.SC, Topology: machine.TopoBus, Caches: true, MaxCycles: campaignMaxCycles},
						{Policy: policy.Unconstrained, Topology: machine.TopoNetwork, MaxCycles: campaignMaxCycles},
					} {
						res, err := machine.Run(p, mc, deriveSeed(0x5eed, uint64(si), uint64(s)))
						if err != nil {
							t.Fatalf("%s/%d: machine %s: %v", spec.name, s, mc.Name(), err)
						}
						d := satDecideCampaign(p, res.Result)
						mu.Lock()
						observed++
						if d.Verdict != sat.Fallback {
							solved++
						}
						mu.Unlock()
						satAgree(t, spec.name, p, res.Result)
						satAgree(t, spec.name, p, corrupt(res.Result))
					}
				}
			})
		}
	})
	rate := float64(solved) / float64(observed)
	t.Logf("satfast decided %d/%d machine-observed generator-mix results (%.1f%%)", solved, observed, 100*rate)
	if rate < 0.60 {
		t.Errorf("satfast decision rate %.1f%% on the generator mix, want >= 60%%", 100*rate)
	}
}

// TestSatFastSummaryParity runs the same campaign with the fast path on
// and off: the summaries must be byte-identical once the Oracle stage
// accounting — the only thing the fast path is allowed to change — is
// masked out. Any other difference means the fast path altered a
// verdict.
func TestSatFastSummaryParity(t *testing.T) {
	if testing.Short() {
		t.Skip("two full campaigns; skipped in -short")
	}
	run := func(search bool) *Summary {
		searchOnly = search
		defer func() { searchOnly = false }()
		s, err := Run(smallCampaign(7))
		if err != nil {
			t.Fatal(err)
		}
		s.Perf = nil
		s.Oracle = OracleStats{}
		return s
	}
	on, off := run(false), run(true)
	jOn, err := on.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jOff, err := off.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(jOn) != string(jOff) {
		t.Errorf("summaries diverge beyond oracle accounting:\n satfast on:  %s\n satfast off: %s", jOn, jOff)
	}
}
