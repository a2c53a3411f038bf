package check

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"weakorder/internal/cache"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/sat"
)

// satQuery is one appears-SC question as the L1 memo sees it: a
// program's first observation of a result key.
type satQuery struct {
	p   *program.Program
	res mem.Result
}

// campaignQueries runs cfg with one worker and returns, in order, every
// program's distinct observed results. The Fault hook sees each
// simulation's result just before the campaign keys it; pooled results
// alias the machine's buffers, so each kept result is copied.
func campaignQueries(t testing.TB, cfg CampaignConfig) []satQuery {
	t.Helper()
	var (
		out  []satQuery
		last *program.Program
		seen map[string]bool
	)
	cfg.Workers = 1
	cfg.Fault = func(_ machine.Config, p *program.Program, res *machine.RunResult) {
		if p != last {
			last, seen = p, make(map[string]bool)
		}
		k := res.Result.Key()
		if seen[k] {
			return
		}
		seen[k] = true
		r := mem.Result{Reads: slices.Clone(res.Result.Reads), Final: maps.Clone(res.Result.Final)}
		out = append(out, satQuery{p: p, res: r})
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	return out
}

// refQueryCampaign and mesh64QueryCampaign make the two campaign-shaped
// query streams the tests below decide.
var (
	refQueryCampaign = CampaignConfig{
		Seed: 7, Programs: 100, SeedsPerConfig: 2,
		Policies: []policy.Kind{policy.SC, policy.Unconstrained, policy.WODef1, policy.WODef2},
	}
	mesh64QueryCampaign = CampaignConfig{
		Seed: 3, Programs: 16, SeedsPerConfig: 2, Procs: 64,
		Policies:   []policy.Kind{policy.SC, policy.WODef2},
		Topologies: []machine.Topology{machine.TopoMesh},
		DirMode:    cache.DirLimitedPtr,
	}
)

// TestSatCampaignQueries pins every fast-path decision of two
// campaign-shaped query streams: about a hundred programs of the
// campaign-ref benchmark's matrix (SC, Unconstrained, WO-Def1, WO-Def2
// on bus and network, two machine seeds) and sixteen of campaign-mesh64's
// (SC and WO-Def2 on the 64-processor mesh with limited-pointer
// directories). Each query's key, verdict, fallback reason and event
// count feed the digest in order. A rejection's reason is left out: it
// names whichever contradiction the saturation met first, which is not
// part of the verdict. A change to internal/sat or to mem.Result.Key
// that moves a digest has changed a decision or a key.
func TestSatCampaignQueries(t *testing.T) {
	cases := []struct {
		name string
		cfg  CampaignConfig
		want string
	}{
		{name: "ref", cfg: refQueryCampaign,
			want: "e13150b5144069565ccd04f3cf94997b403c115780e76551ef911e10e5b814ca"},
		{name: "mesh64", cfg: mesh64QueryCampaign,
			want: "5528866229e6596efa8348bfb79a4c8a07b7bb274ed88c3cc2dbc4d593b46a59"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			qs := campaignQueries(t, tc.cfg)
			h := sha256.New()
			var count [3]int
			for _, q := range qs {
				d := sat.Decide(q.p, q.res, sat.Config{})
				count[d.Verdict]++
				reason := ""
				if d.Verdict == sat.Fallback {
					reason = d.Reason
				}
				fmt.Fprintf(h, "%s\x00%s\x00%s\x00%d\n", q.res.Key(), d.Verdict, reason, d.Events)
			}
			t.Logf("%d queries: %d accepted, %d rejected, %d fallback",
				len(qs), count[sat.Accepted], count[sat.Rejected], count[sat.Fallback])
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
				t.Errorf("query digest %s, want %s", got, tc.want)
			}
		})
	}
}

// TestDecideReuse: sat.Decide recycles its buffers across decisions, so
// no decision may depend on the ones before it. Both query streams of
// TestSatCampaignQueries are decided forward, then in reverse, then
// interleaved so that each of the largest queries is followed by one of
// the smallest, and then from two goroutines at once (one forward, one
// in reverse). Every decision (verdict, reason, events) must equal the
// forward pass's. The digest above decides in one fixed order, so
// residue that shows only after a larger query would pass it.
func TestDecideReuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  CampaignConfig
	}{{"ref", refQueryCampaign}, {"mesh64", mesh64QueryCampaign}} {
		t.Run(tc.name, func(t *testing.T) {
			qs := campaignQueries(t, tc.cfg)
			want := make([]sat.Decision, len(qs))
			forward := make([]int, len(qs))
			for i, q := range qs {
				want[i] = sat.Decide(q.p, q.res, sat.Config{})
				forward[i] = i
			}
			decide := func(pass string, order []int) {
				for _, i := range order {
					if d := sat.Decide(qs[i].p, qs[i].res, sat.Config{}); d != want[i] {
						t.Errorf("%s: query %d decided %+v, forward pass %+v", pass, i, d, want[i])
					}
				}
			}
			reverse := slices.Clone(forward)
			slices.Reverse(reverse)
			decide("reverse", reverse)

			bySize := slices.Clone(forward)
			slices.SortStableFunc(bySize, func(a, b int) int { return want[a].Events - want[b].Events })
			var interleaved []int
			for lo, hi := 0, len(bySize)-1; lo <= hi; lo, hi = lo+1, hi-1 {
				interleaved = append(interleaved, bySize[hi])
				if lo < hi {
					interleaved = append(interleaved, bySize[lo])
				}
			}
			decide("largest then smallest", interleaved)

			var wg sync.WaitGroup
			for _, order := range [][]int{forward, reverse} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					decide("concurrent", order)
				}()
			}
			wg.Wait()
			t.Logf("%d queries decided four ways", len(qs))
		})
	}
}
