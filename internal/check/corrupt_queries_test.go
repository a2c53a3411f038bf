package check

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"weakorder/internal/machine"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/sat"
	"weakorder/internal/scmatch"
)

// TestCorruptQueryDigest pins both oracles on the corrupted results of a
// campaign-shrink-shaped campaign: CorruptReadFault on WO-Def2, WO-Def2
// and SC on bus and network, 16 programs, seed 7. The Fault hook runs
// the corruption and then records, so the shrinker's probes are
// included. Every distinct (program, result) pair, in first-seen order,
// feeds the digest its key, sat.Decide's verdict, reason and event
// count, and scmatch.Matches' answer, state count and error. A corrupted
// read steers the replay and the result-directed search down paths no
// uncorrupted result takes, so this is where a change to how either
// oracle walks a result's reads shows first.
func TestCorruptQueryDigest(t *testing.T) {
	const want = "a6918b819352c29c5106c86c5d6fe0ffc92557b3ef802c47d2a4a504642dc01a"
	corrupt := CorruptReadFault(policy.WODef2)
	h := sha256.New()
	seen := make(map[string]bool)
	var count [3]int
	cfg := CampaignConfig{
		Seed: 7, Programs: 16, SeedsPerConfig: 2, Workers: 1,
		Policies: []policy.Kind{policy.WODef2, policy.SC},
		Fault: func(mcfg machine.Config, p *program.Program, res *machine.RunResult) {
			corrupt(mcfg, p, res)
			k := res.Result.Key()
			if id := formatProgram(p) + "\x00" + k; !seen[id] {
				seen[id] = true
				d := sat.Decide(p, res.Result, sat.Config{})
				count[d.Verdict]++
				m, err := scmatch.Matches(p, res.Result, scmatch.Config{MaxStates: oracleMatchMaxStates})
				fmt.Fprintf(h, "%s\x00%s\x00%s\x00%d\x00%t\x00%d\x00%v\n",
					k, d.Verdict, d.Reason, d.Events, m.OK, m.States, err)
			}
		},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d queries: %d accepted, %d rejected, %d fallback",
		len(seen), count[sat.Accepted], count[sat.Rejected], count[sat.Fallback])
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("corrupt query digest %s, want %s", got, want)
	}
}
