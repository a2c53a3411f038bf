package check

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"weakorder/internal/machine"
)

// corpusPins records, per committed corpus entry, the exact result key
// and cycle count of a replay under the entry's recorded configuration
// and machine seed. The kernel and scheduler rework must keep these
// byte-identical: any drift here means recorded reproducers no longer
// reproduce what they recorded.
var corpusPins = map[string]struct {
	key    string
	cycles uint64
}{
	"definition2-p0000-WO-Def2": {key: "P0.0[0]=0;|", cycles: 11},
	"definition2-p0001-WO-Def2": {key: "P0.0[0]=0;|", cycles: 11},
	"definition2-p0002-WO-Def2": {key: "P0.3[3]=0;P0.4[3]=0;P0.5[3]=0;P0.6[3]=0;P0.7[3]=0;P0.8[3]=0;P0.9[3]=0;P0.10[3]=0;P0.11[3]=0;P0.12[3]=0;P0.13[3]=0;P0.14[3]=0;P0.15[3]=0;P0.16[3]=0;P0.17[3]=0;P0.18[3]=0;P0.19[3]=0;P0.20[3]=0;P0.21[3]=0;P0.22[3]=0;P0.23[3]=0;P0.24[3]=0;P0.25[3]=0;P0.26[3]=0;P0.27[3]=0;P0.28[3]=0;P0.29[3]=0;P0.30[3]=0;P0.31[3]=0;P0.32[3]=0;P0.33[3]=0;P0.34[3]=0;P0.35[3]=0;P0.36[3]=1;P1.0[2]=0;P1.1[2]=0;P1.2[2]=0;P1.3[2]=0;P1.4[2]=0;P1.5[2]=0;P1.6[2]=0;P1.7[2]=0;P1.8[2]=0;P1.9[2]=0;P1.10[2]=1;P1.11[0]=38;P1.16[2]=1;P1.17[2]=1;P1.18[2]=1;P1.19[2]=1;P1.20[2]=1;P1.21[2]=1;P1.22[2]=1;P1.23[2]=1;P1.24[2]=1;P1.25[2]=1;P1.26[2]=1;P1.27[2]=1;P1.28[2]=1;P1.29[2]=1;P1.30[2]=1;P1.31[2]=1;P1.32[2]=2;P1.33[0]=143;|0=143;1=150;2=2;3=2;4=2;5=10;6=10;", cycles: 187},
}

// TestCorpusPinnedReplay replays every committed corpus entry under its
// recorded machine configuration and seed and requires the run to match
// the pinned key and cycle count above: reproducers stay byte-identical
// across kernel and scheduler changes. That the idle-cycle fast-forward
// changes no run of these programs is internal/machine's
// TestFastForwardByteIdentical, which takes them as inputs.
func TestCorpusPinnedReplay(t *testing.T) {
	entries, err := LoadCorpus(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(corpusPins) {
		t.Fatalf("corpus has %d entries but %d pins are recorded — update corpusPins", len(entries), len(corpusPins))
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			pin, ok := corpusPins[e.Name]
			if !ok {
				t.Fatalf("no pin recorded for corpus entry %s", e.Name)
			}
			mcfg, err := e.Report.Config.Machine()
			if err != nil {
				t.Fatal(err)
			}
			mcfg.MaxCycles = campaignMaxCycles
			res, err := machine.Run(e.Prog, mcfg, e.Report.MachineSeed)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Result.Key(); got != pin.key {
				t.Errorf("result drifted from pinned replay:\n got  %q\n want %q", got, pin.key)
			}
			if got := res.Stats.Cycles; got != pin.cycles {
				t.Errorf("cycle count drifted from pinned replay: got %d, want %d", got, pin.cycles)
			}
		})
	}
}

// TestCorpusReplayMetricsInvisible replays every corpus entry with the
// metrics registry and timeline enabled and requires the replay to stay
// byte-identical to the plain one: recorded reproducers must reproduce
// the same execution whether or not anyone is watching.
func TestCorpusReplayMetricsInvisible(t *testing.T) {
	entries, err := LoadCorpus(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			mcfg, err := e.Report.Config.Machine()
			if err != nil {
				t.Fatal(err)
			}
			mcfg.MaxCycles = campaignMaxCycles
			plain, err := machine.Run(e.Prog, mcfg, e.Report.MachineSeed)
			if err != nil {
				t.Fatal(err)
			}
			mcfg.Metrics = true
			mcfg.Timeline = true
			metered, err := machine.Run(e.Prog, mcfg, e.Report.MachineSeed)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprintf("%v", metered.Exec.Ops), fmt.Sprintf("%v", plain.Exec.Ops); got != want {
				t.Errorf("trace diverged with metrics on:\n with    %s\n without %s", got, want)
			}
			if !reflect.DeepEqual(metered.OpCycles, plain.OpCycles) {
				t.Error("commit cycles diverged with metrics on")
			}
			if !reflect.DeepEqual(metered.Stats, plain.Stats) {
				t.Errorf("stats diverged with metrics on:\n with    %+v\n without %+v", metered.Stats, plain.Stats)
			}
			if got, want := metered.Result.Key(), plain.Result.Key(); got != want {
				t.Errorf("result diverged with metrics on: %q vs %q", got, want)
			}
			if metered.Metrics == nil || metered.Timeline == nil {
				t.Error("telemetry enabled but not returned")
			}
		})
	}
}

// TestCorpusPinnedSerialization re-marshals each loaded report and
// requires the bytes to match the committed .json file exactly, so a
// corpus written by one toolchain round-trips unchanged through another.
func TestCorpusPinnedSerialization(t *testing.T) {
	dir := filepath.Join("testdata", "corpus")
	entries, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := json.MarshalIndent(e.Report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, '\n')
		want, err := os.ReadFile(filepath.Join(dir, e.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(want) {
			t.Errorf("%s: report does not round-trip byte-identically", e.Name)
		}
	}
}
