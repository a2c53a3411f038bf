package workload

import (
	"testing"

	"weakorder/internal/drf"
	"weakorder/internal/hb"
	"weakorder/internal/ideal"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
	"weakorder/internal/program"
)

func checkDRF(t *testing.T, p *program.Program) {
	t.Helper()
	v, err := drf.Check(p, hb.SyncAll, drf.CheckConfig{
		Enum: ideal.EnumConfig{
			Interp:        ideal.Config{MaxMemOpsPerThread: 14},
			SkipTruncated: true,
			MaxPaths:      3_000_000,
		},
	})
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	if !v.DRF {
		t.Fatalf("%s must obey DRF0; races: %v", p.Name, v.Races)
	}
}

func TestDataPerSyncIsDRF0(t *testing.T) {
	checkDRF(t, DataPerSync(2, 1, 1))
}

func TestProducerConsumerIsDRF0(t *testing.T) {
	checkDRF(t, ProducerConsumer(1, 1))
}

func TestDataPerSyncRunsOnAllPolicies(t *testing.T) {
	p := DataPerSync(4, 2, 4)
	for _, pol := range []policy.Kind{policy.SC, policy.WODef1, policy.WODef2, policy.WODef2RO} {
		cfg := machine.Config{Policy: pol, Topology: machine.TopoNetwork, Caches: true}
		res, err := machine.Run(p, cfg, 3)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		// Every flag must end at the round count.
		for i := 0; i < 4; i++ {
			a, ok := p.AddrOf("flag0")
			if i == 0 && (!ok || res.Exec.Final[a] != 2) {
				t.Errorf("%v: flag0 = %d, want 2", pol, res.Exec.Final[a])
			}
		}
	}
}

func TestProducerConsumerDeliversItems(t *testing.T) {
	p := ProducerConsumer(2, 3)
	if p.NumThreads() != 4 {
		t.Fatalf("threads = %d, want 4", p.NumThreads())
	}
	for _, pol := range []policy.Kind{policy.WODef2, policy.WODef2RO} {
		cfg := machine.Config{Policy: pol, Topology: machine.TopoNetwork, Caches: true}
		res, err := machine.Run(p, cfg, 9)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		for pr := 0; pr < 2; pr++ {
			out, _ := p.AddrOf("out0")
			if pr == 1 {
				out, _ = p.AddrOf("out1")
			}
			// The consumer's last observed item is the final one.
			if got := res.Exec.Final[out]; got != mem.Value(1000+2) {
				t.Errorf("%v: out%d = %d, want %d", pol, pr, got, 1000+2)
			}
		}
	}
}

func TestFalseShareScalesWithoutSync(t *testing.T) {
	p := FalseShare(4, 8)
	cfg := machine.Config{Policy: policy.WODef2, Topology: machine.TopoNetwork, Caches: true}
	res, err := machine.Run(p, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Stats.Procs {
		if s := res.Stats.Procs[i].SyncStall(); s != 0 {
			t.Errorf("P%d sync stall = %d on a sync-free workload", i, s)
		}
	}
}
