package check

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"weakorder/internal/cache"
	"weakorder/internal/faults"
	"weakorder/internal/machine"
	"weakorder/internal/policy"
)

// verdictDigest hashes a campaign Summary's verdict content: the JSON
// encoding with the oracle keys that only describe how the appears-SC
// question was answered — not what the answer was — removed. Numbers
// are decoded as json.Number so 63-bit seeds survive the round trip.
// corpusDir, when non-empty, folds every corpus file (name and bytes)
// into the digest too.
func verdictDigest(t *testing.T, s *Summary, corpusDir string) string {
	t.Helper()
	raw, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var m map[string]interface{}
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	oracle, _ := m["oracle"].(map[string]interface{})
	for _, k := range []string{"enumerations", "incomplete", "enumHits", "fallbacks", "fallbackMemoHits"} {
		delete(oracle, k)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(b)
	if corpusDir != "" {
		ents, err := os.ReadDir(corpusDir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name())
		}
		sort.Strings(names)
		for _, name := range names {
			body, err := os.ReadFile(filepath.Join(corpusDir, name))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "\x00%s\x00%d\x00", name, len(body))
			h.Write(body)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenCampaignVerdicts pins the verdicts of seven small campaigns
// that together exercise every oracle path: the full policy matrix, the
// padded 64-processor mesh with a limited-pointer directory, an injected
// Definition 2 fault with shrinking and corpus emission, severe
// interconnect faults, and the search-only oracle (NoSatFast). The two
// shrink-matrix cases pin the shrinker's outcomes (reports and shrunk
// litmus, not corpus file names) on the campaign-shrink benchmark's
// matrix, fault-free and under severe interconnect faults. Any change
// to how appears-SC is decided must leave these digests alone; a change
// that moves one has altered a verdict, a coverage count, a violation
// report, or a reproducer.
func TestGoldenCampaignVerdicts(t *testing.T) {
	severe := faults.Severe()
	cases := []struct {
		name   string
		cfg    CampaignConfig
		corpus bool
		want   string
	}{
		{name: "all-policies", cfg: CampaignConfig{
			Seed: 1, Programs: 64, SeedsPerConfig: 2,
		}, want: "c11f2e04d855c22847fea1d3ce833297dfe4698708e1abd0dd2ebc8f28c912c5"},
		{name: "mesh64-limited", cfg: CampaignConfig{
			Seed: 1, Programs: 16, SeedsPerConfig: 1, Procs: 64,
			Policies:   []policy.Kind{policy.SC, policy.WODef2},
			Topologies: []machine.Topology{machine.TopoMesh},
			DirMode:    cache.DirLimitedPtr,
		}, want: "9b14f923767a0ce345cb4bff1bd909915392ed53fbe616471dae255dbf247732"},
		{name: "corrupt-read-shrink", cfg: CampaignConfig{
			Seed: 1, Programs: 8, SeedsPerConfig: 1,
			Fault: CorruptReadFault(policy.WODef2),
		}, corpus: true, want: "7d2469cfd18ef627ac43790833fdcdb07bc323d02ce504a948dd9f17d3348a95"},
		{name: "faults-severe", cfg: CampaignConfig{
			Seed: 1, Programs: 32, SeedsPerConfig: 1,
			Policies:   []policy.Kind{policy.SC, policy.WODef2},
			Topologies: []machine.Topology{machine.TopoNetwork},
			Faults:     &severe,
		}, want: "a5e0c9bfc22b131d5770f37091da862586260cc51414d5b21e50862241cbef1a"},
		{name: "search-only", cfg: CampaignConfig{
			Seed: 7, Programs: 32, SeedsPerConfig: 1, NoSatFast: true,
		}, want: "4fbe72a352beab7188b9e8af4dc7a2d260e3a504a9528f79bfee1258a5b2f997"},
		{name: "shrink-matrix", cfg: CampaignConfig{
			Seed: 1, Programs: 20, SeedsPerConfig: 2,
			Policies: []policy.Kind{policy.WODef2, policy.SC},
			Fault:    CorruptReadFault(policy.WODef2),
		}, want: "67dbdc21654807682a3107ef9022b5289b4b2b1223e3b93dfb346ccb512b00a8"},
		{name: "shrink-matrix-severe", cfg: CampaignConfig{
			Seed: 1, Programs: 20, SeedsPerConfig: 2,
			Policies:   []policy.Kind{policy.WODef2, policy.SC},
			Topologies: []machine.Topology{machine.TopoNetwork},
			Faults:     &severe,
			Fault:      CorruptReadFault(policy.WODef2),
		}, want: "8eb96de86aace4c434cf5147531afee18fdc6683fdbb8203fb8b2b09ad627d4b"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if tc.corpus {
				cfg.CorpusDir = t.TempDir()
			}
			s, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := verdictDigest(t, s, cfg.CorpusDir); got != tc.want {
				t.Errorf("verdict digest %s, want %s (%d sims, %d violations)",
					got, tc.want, s.Sims, len(s.Violations))
			}
		})
	}
}
