package machine

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"weakorder/internal/cache"
	"weakorder/internal/faults"
	"weakorder/internal/gen"
	"weakorder/internal/litmus"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/workload"
)

// runDigest is sha256 over everything a run models: statistics, the
// commit-ordered trace, commit cycles, final memory and registers.
func runDigest(t *testing.T, res *RunResult) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Stats    Stats
		Ops      any
		OpCycles []uint64
		Final    any
		Regs     []program.RegFile
	}{res.Stats, res.Exec.Ops, res.OpCycles, res.Exec.Final, res.Regs})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestGoldenRunDigests pins whole runs on the large and unusual machines
// that the pooled and fast-forward differentials (which compare the
// simulator against itself) and the small-machine corpus and trace pins
// leave uncovered: Figure 3 at 16, 64 and 256 processors, a program
// padded to 64 processors, a faulted network, migrations and the snoopy
// bus. A digest changes only when a simulated result does; host-side
// optimisations of the run loop must leave every one of them alone.
func TestGoldenRunDigests(t *testing.T) {
	mild := faults.Mild()
	padded := gen.RaceFree(gen.RaceFreeConfig{Procs: 4, Sections: 2}, 3)
	type run struct {
		name string
		prog *program.Program
		cfg  Config
	}
	var runs []run
	for _, procs := range []int{16, 64, 256} {
		for _, pol := range []policy.Kind{policy.SC, policy.WODef1, policy.WODef2} {
			runs = append(runs, run{
				name: fmt.Sprintf("fig3-%d/%v", procs, pol),
				prog: workload.Fig3Scaled(procs),
				cfg:  Config{Policy: pol, Topology: TopoMesh, Caches: true},
			})
		}
	}
	runs = append(runs,
		run{name: "padded64-limited/WO-Def2", prog: padded, cfg: Config{
			Policy: policy.WODef2, Topology: TopoMesh, Caches: true,
			DirMode: cache.DirLimitedPtr, ExtraProcs: 64 - padded.NumThreads(),
		}},
		run{name: "faults-mild/WO-Def2", prog: litmus.CriticalSection(3, 2), cfg: Config{
			Policy: policy.WODef2, Topology: TopoNetwork, Caches: true, Faults: &mild,
		}},
		run{name: "migration/WO-Def2", prog: litmus.CriticalSection(2, 3), cfg: Config{
			Policy: policy.WODef2, Topology: TopoNetwork, Caches: true, ExtraProcs: 2,
			Migrations: []Migration{{AtCycle: 30, From: 0, To: 2}, {AtCycle: 90, From: 2, To: 3}},
		}},
		run{name: "snoop/WO-Def2", prog: litmus.CriticalSection(3, 2), cfg: Config{
			Policy: policy.WODef2, Topology: TopoBus, Caches: true, Snoop: true,
		}},
	)
	want := map[string]string{
		"fig3-16/SC":               "1c6570ba8ab533d9c3f0aec440b7c89d08d8cecca7e4e04b4e103ac5ff463cad",
		"fig3-16/WO-Def1":          "5db79febf9a04c30d29679a3373058a54c30de20ce044a761597954b3e4e2b56",
		"fig3-16/WO-Def2":          "11b7017295c9edc6e04cac5de9c28abe89f3036a067faeae3409a2824fba4888",
		"fig3-64/SC":               "f2b9a8ccf9cb6433fe6514b8b3f08d2029ae468c12e2213e7f687db39d2137f9",
		"fig3-64/WO-Def1":          "3d458f6a6c4cf2e776ce1b12549e7b66e6dee521dee922dbbcbe5746998248a7",
		"fig3-64/WO-Def2":          "c10760431c178f84c9125540293dafe299272c867c990fc2a42d16d1c5024016",
		"fig3-256/SC":              "20f752a556e94f62fc54aeba1e2bd47ce3838563c0fca8e4762265c2881e41b3",
		"fig3-256/WO-Def1":         "db4d7253893a26c66b541bd3fe3defd1c82d7e752c93d85de9aa496d098e1691",
		"fig3-256/WO-Def2":         "390b05d44111abae8817a3f6b799c084f8727e277629eb154df51e5ccb06aac8",
		"padded64-limited/WO-Def2": "40fa771a157702b23fbf6259a59708b7a063a2ce3a0c6b1e4183f1f5bae06f7b",
		"faults-mild/WO-Def2":      "2269a57e54ae8cc35ca15f061db01d89ccc18312b94d3c7ad9012a8fe38c3e59",
		"migration/WO-Def2":        "4653d472b20c67cb27bd943aa9fcc0e1185f06cb2e57da8364a3f050fb87ed43",
		"snoop/WO-Def2":            "3287ab841139f8d320008ba3c67d3eaccd093523f0111ded7dfa196098606446",
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			res, err := Run(r.prog, r.cfg, 7)
			if err != nil {
				t.Fatal(err)
			}
			if got := runDigest(t, res); got != want[r.name] {
				t.Errorf("digest %s, want %s (%d cycles)", got, want[r.name], res.Stats.Cycles)
			}
		})
	}
}
