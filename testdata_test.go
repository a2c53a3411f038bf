package weakorder_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weakorder"
)

// loadLitmus parses one file from testdata.
func loadLitmus(t *testing.T, name string) *weakorder.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	p, err := weakorder.ParseProgram(string(src))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

func TestTestdataFilesAllParse(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".litmus") {
			continue
		}
		n++
		p := loadLitmus(t, e.Name())
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
		// Round trip through the formatter.
		if _, err := weakorder.ParseProgram(weakorder.FormatProgram(p)); err != nil {
			t.Errorf("%s: format round trip: %v", e.Name(), err)
		}
	}
	if n < 5 {
		t.Fatalf("only %d litmus files found", n)
	}
}

func TestTestdataSBCondition(t *testing.T) {
	p := loadLitmus(t, "sb.litmus")
	if p.Cond == nil {
		t.Fatal("sb.litmus must carry a postcondition")
	}
	// The unconstrained bus machine hits it; the SC machine never does.
	hit := false
	for seed := int64(0); seed < 5; seed++ {
		res, err := weakorder.Simulate(p, weakorder.MachineConfig{
			Policy: weakorder.Unconstrained, Topology: weakorder.Bus, Caches: true,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.CondHolds(p) {
			hit = true
		}
		resSC, err := weakorder.Simulate(p, weakorder.MachineConfig{
			Policy: weakorder.SC, Topology: weakorder.Bus, Caches: true,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		if resSC.CondHolds(p) {
			t.Errorf("seed %d: SC machine satisfied the forbidden condition", seed)
		}
	}
	if !hit {
		t.Error("unconstrained machine must exhibit the SB condition")
	}
}

func TestTestdataDekkerRaces(t *testing.T) {
	p := loadLitmus(t, "dekker.litmus")
	v, err := weakorder.CheckDRF0(p)
	if err != nil {
		t.Fatal(err)
	}
	if v.DRF {
		t.Error("dekker.litmus must race")
	}
}

func TestTestdataHandoffIsDRF0AndCorrect(t *testing.T) {
	p := loadLitmus(t, "handoff.litmus")
	v, err := weakorder.CheckDRF0(p)
	if err != nil {
		t.Fatal(err)
	}
	if !v.DRF {
		t.Fatalf("handoff.litmus must obey DRF0: %v", v.Races)
	}
	res, err := weakorder.Simulate(p, weakorder.MachineConfig{
		Policy: weakorder.WODef2, Topology: weakorder.Network, Caches: true,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := weakorder.AppearsSC(p, res.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("handoff run must appear SC")
	}
}

func TestTestdataTTASCountsToTwo(t *testing.T) {
	p := loadLitmus(t, "ttas.litmus")
	counter, ok := p.AddrOf("counter")
	if !ok {
		t.Fatal("no counter symbol")
	}
	for _, pol := range []weakorder.Policy{weakorder.WODef2, weakorder.WODef2RO} {
		res, err := weakorder.Simulate(p, weakorder.MachineConfig{
			Policy: pol, Topology: weakorder.Network, Caches: true,
		}, 9)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Exec.Final[counter]; got != 2 {
			t.Errorf("%v: counter = %d, want 2", pol, got)
		}
	}
}

func TestTestdataFencedSBNeverForbidden(t *testing.T) {
	p := loadLitmus(t, "sb-fenced.litmus")
	for _, pol := range weakorder.Policies() {
		cfg := weakorder.MachineConfig{Policy: pol, Topology: weakorder.Network, Caches: true, NetJitter: 20}
		for seed := int64(0); seed < 5; seed++ {
			res, err := weakorder.Simulate(p, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			r0, _ := res.Result.Read(weakorder.OpID{Proc: 0, Index: 1})
			r1, _ := res.Result.Read(weakorder.OpID{Proc: 1, Index: 1})
			if r0.Value == 0 && r1.Value == 0 {
				t.Errorf("%v seed %d: fences failed", pol, seed)
			}
		}
	}
}
