package cpu

import (
	"testing"

	"weakorder/internal/cache"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/sim"
)

// fakePort is a scriptable MemPort: it completes requests after a fixed
// delay and records issue order.
type fakePort struct {
	k       *sim.Kernel
	delay   sim.Time
	memory  map[mem.Addr]mem.Value
	issued  []mem.Addr
	pending int
	// holdGlobal delays OnGlobal an extra holdGlobal cycles after commit.
	holdGlobal sim.Time
}

func newFakePort(k *sim.Kernel, delay sim.Time) *fakePort {
	return &fakePort{k: k, delay: delay, memory: make(map[mem.Addr]mem.Value)}
}

func (f *fakePort) Issue(r *cache.Req) {
	f.issued = append(f.issued, r.Addr)
	f.pending++
	f.k.After(f.delay, func() {
		var v mem.Value
		switch r.Kind {
		case mem.Read, mem.SyncRead:
			v = f.memory[r.Addr]
		case mem.Write, mem.SyncWrite:
			f.memory[r.Addr] = r.Data
			v = r.Data
		case mem.SyncRMW:
			v = f.memory[r.Addr]
			f.memory[r.Addr] = r.Data
		}
		if r.OnCommit != nil {
			r.OnCommit(v)
		}
		f.k.After(f.holdGlobal, func() {
			f.pending--
			if r.OnGlobal != nil {
				r.OnGlobal()
			}
		})
	})
}

func (f *fakePort) Counter() int { return f.pending }
func (f *fakePort) Busy() bool   { return f.pending > 0 }

// runProc ticks the processor to completion (bounded).
func runProc(t *testing.T, k *sim.Kernel, p *Proc, maxCycles int) {
	t.Helper()
	for c := 1; c <= maxCycles; c++ {
		if p.Halted() && !pBusy(p) {
			return
		}
		k.AdvanceTo(sim.Time(c))
		p.Tick()
		p.Drain()
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("processor did not finish in %d cycles", maxCycles)
}

func pBusy(p *Proc) bool { return len(p.wbuf) > 0 || p.issuedWrites > 0 }

func buildThread(t *testing.T, build func(*program.ThreadBuilder)) program.Thread {
	t.Helper()
	b := program.NewBuilder("t")
	th := b.Thread()
	build(th)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog.Threads[0]
}

func TestProcExecutesLocalAndMemory(t *testing.T) {
	k := &sim.Kernel{}
	port := newFakePort(k, 2)
	port.memory[1] = 10
	th := buildThread(t, func(tb *program.ThreadBuilder) {
		tb.Load(program.R0, 1)
		tb.AddImm(program.R1, program.R0, 5)
		tb.Store(2, program.R1)
	})
	var trace []mem.Op
	p := New(k, Config{Policy: policy.WODef2}, th, port, func(op mem.Op) { trace = append(trace, op) })
	runProc(t, k, p, 100)
	if got := port.memory[2]; got != 15 {
		t.Fatalf("memory[2] = %d, want 15", got)
	}
	if len(trace) != 2 {
		t.Fatalf("trace %v, want 2 ops", trace)
	}
	if trace[0].Kind != mem.Read || trace[0].Got != 10 {
		t.Errorf("first op %v", trace[0])
	}
	if p.Reg(program.R1) != 15 {
		t.Errorf("r1 = %d", p.Reg(program.R1))
	}
}

func TestReadForwardsFromWriteBuffer(t *testing.T) {
	k := &sim.Kernel{}
	port := newFakePort(k, 50) // slow memory: forwarding must not wait
	th := buildThread(t, func(tb *program.ThreadBuilder) {
		tb.StoreImm(3, 7)
		tb.Load(program.R0, 3)
	})
	p := New(k, Config{Policy: policy.WODef2}, th, port, nil)
	// Two cycles: dispatch store (buffered), then load forwards.
	k.AdvanceTo(1)
	p.Tick()
	p.Drain()
	k.AdvanceTo(2)
	p.Tick()
	p.Drain()
	if got := p.Reg(program.R0); got != 7 {
		t.Fatalf("forwarded read = %d, want 7", got)
	}
	if p.Stats().Forwards != 1 {
		t.Fatalf("forwards = %d, want 1", p.Stats().Forwards)
	}
}

func TestReadBypassesBufferedWriteToOtherAddress(t *testing.T) {
	k := &sim.Kernel{}
	port := newFakePort(k, 5)
	th := buildThread(t, func(tb *program.ThreadBuilder) {
		tb.StoreImm(1, 1) // buffered
		tb.Load(program.R0, 2)
	})
	p := New(k, Config{Policy: policy.WODef2}, th, port, nil)
	runProc(t, k, p, 100)
	// The read (addr 2) must be issued before the write (addr 1).
	if len(port.issued) != 2 || port.issued[0] != 2 || port.issued[1] != 1 {
		t.Fatalf("issue order %v, want [2 1] (read bypasses write)", port.issued)
	}
}

func TestSCIssuesInOrderAndWaits(t *testing.T) {
	k := &sim.Kernel{}
	port := newFakePort(k, 5)
	th := buildThread(t, func(tb *program.ThreadBuilder) {
		tb.StoreImm(1, 1)
		tb.Load(program.R0, 2)
	})
	p := New(k, Config{Policy: policy.SC}, th, port, nil)
	runProc(t, k, p, 200)
	if len(port.issued) != 2 || port.issued[0] != 1 || port.issued[1] != 2 {
		t.Fatalf("issue order %v, want [1 2] under SC", port.issued)
	}
	if p.Stats().Stall[PerAccessWait] == 0 {
		t.Error("SC must accumulate per-access stall")
	}
}

func TestDef1DrainsBeforeSync(t *testing.T) {
	k := &sim.Kernel{}
	port := newFakePort(k, 10)
	port.holdGlobal = 20 // global performance lags commit
	th := buildThread(t, func(tb *program.ThreadBuilder) {
		tb.StoreImm(1, 1)     // data write
		tb.SyncStoreImm(2, 1) // release: must wait for the write
	})
	p := New(k, Config{Policy: policy.WODef1}, th, port, nil)
	runProc(t, k, p, 500)
	st := p.Stats()
	if st.Stall[DrainPreSync] == 0 {
		t.Error("Def1 must stall draining before the sync op")
	}
	if st.Stall[SyncGlobalWait] == 0 {
		t.Error("Def1 must wait for the sync op's global performance")
	}
}

func TestDef2WaitsOnlyForCommit(t *testing.T) {
	k := &sim.Kernel{}
	port := newFakePort(k, 10)
	port.holdGlobal = 200 // enormous global-perform lag
	th := buildThread(t, func(tb *program.ThreadBuilder) {
		tb.StoreImm(1, 1)
		tb.SyncStoreImm(2, 1)
		tb.StoreImm(3, 3) // post-release work proceeds
	})
	p := New(k, Config{Policy: policy.WODef2}, th, port, nil)
	// Run until the program is done dispatching (but global acks pending).
	for c := 1; c <= 300; c++ {
		k.AdvanceTo(sim.Time(c))
		p.Tick()
		p.Drain()
	}
	st := p.Stats()
	if st.Stall[DrainPreSync] != 0 {
		t.Error("Def2 must not drain-wait before sync")
	}
	if st.Stall[SyncGlobalWait] != 0 {
		t.Error("Def2 must not wait for sync global performance")
	}
	if st.Stall[SyncCommitWait] == 0 {
		t.Error("Def2 waits for sync commit")
	}
	if port.memory[3] != 3 {
		t.Error("post-release work must complete while acks are pending")
	}
}

func TestBufferFullStalls(t *testing.T) {
	k := &sim.Kernel{}
	port := newFakePort(k, 100) // writes complete very slowly
	th := buildThread(t, func(tb *program.ThreadBuilder) {
		for i := 0; i < 6; i++ {
			tb.StoreImm(mem.Addr(i), 1)
		}
	})
	p := New(k, Config{Policy: policy.WODef2, WriteBufferSize: 2, MaxOutstandingWrites: 1}, th, port, nil)
	for c := 1; c <= 50; c++ {
		k.AdvanceTo(sim.Time(c))
		p.Tick()
		p.Drain()
	}
	if p.Stats().Stall[BufferFull] == 0 {
		t.Error("a 2-entry buffer fed 6 writes must stall BufferFull")
	}
}

func TestLocalInfiniteLoopReportsError(t *testing.T) {
	k := &sim.Kernel{}
	port := newFakePort(k, 1)
	th := buildThread(t, func(tb *program.ThreadBuilder) {
		tb.Label("top")
		tb.Jmp("top")
	})
	p := New(k, Config{Policy: policy.WODef2}, th, port, nil)
	k.AdvanceTo(1)
	p.Tick()
	if p.Err() == nil {
		t.Fatal("local infinite loop must surface as Err")
	}
}

func TestTASDispatchesRMWWithValueOne(t *testing.T) {
	k := &sim.Kernel{}
	port := newFakePort(k, 2)
	port.memory[4] = 0
	th := buildThread(t, func(tb *program.ThreadBuilder) {
		tb.TAS(program.R0, 4)
	})
	var trace []mem.Op
	p := New(k, Config{Policy: policy.WODef2}, th, port, func(op mem.Op) { trace = append(trace, op) })
	runProc(t, k, p, 100)
	if p.Reg(program.R0) != 0 {
		t.Errorf("TAS returned %d, want 0", p.Reg(program.R0))
	}
	if port.memory[4] != 1 {
		t.Errorf("TAS left %d, want 1", port.memory[4])
	}
	if len(trace) != 1 || trace[0].Kind != mem.SyncRMW || trace[0].Data != 1 {
		t.Errorf("trace %v", trace)
	}
}

func TestReasonStrings(t *testing.T) {
	for r := 0; r < NumReasons; r++ {
		if Reason(r).String() == "" {
			t.Errorf("empty name for reason %d", r)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	s.Stall[ReadWait] = 3
	s.Stall[SyncCommitWait] = 4
	s.Stall[DrainPreSync] = 5
	if s.TotalStall() != 12 {
		t.Errorf("TotalStall = %d, want 12", s.TotalStall())
	}
	if s.SyncStall() != 9 {
		t.Errorf("SyncStall = %d, want 9", s.SyncStall())
	}
}

func TestROSyncReadNoBufferDrain(t *testing.T) {
	k := &sim.Kernel{}
	port := newFakePort(k, 30)
	th := buildThread(t, func(tb *program.ThreadBuilder) {
		tb.StoreImm(1, 1)          // buffered, slow
		tb.SyncLoad(program.R0, 2) // under +RO: no drain wait
	})
	p := New(k, Config{Policy: policy.WODef2RO}, th, port, nil)
	for c := 1; c <= 200; c++ {
		k.AdvanceTo(sim.Time(c))
		p.Tick()
		p.Drain()
	}
	if p.Stats().Stall[BufferDrain] != 0 {
		t.Error("a read-only sync op must not drain the write buffer under +RO")
	}
}
