// Package litmus provides the canonical test programs used throughout the
// paper and the memory-model literature: the Figure 1 Dekker-style
// sequential-consistency violation, message passing with and without
// synchronization, load buffering, IRIW, spin-lock critical sections, and
// the Figure 2 executions and Figure 3 scenario.
//
// Each constructor returns a freshly built program; callers may mutate the
// result freely.
package litmus

import (
	"fmt"

	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// Dekker is the Figure 1 program. Two processors each write one flag and
// then read the other's:
//
//	P0: X = 1; r0 = Y        P1: Y = 1; r1 = X
//
// Under sequential consistency r0 == 0 && r1 == 0 is impossible (it would
// "kill both processors"). All four accesses are ordinary data accesses,
// so the program has data races and weak hardware may produce the
// forbidden outcome.
func Dekker() *program.Program {
	b := program.NewBuilder("dekker")
	x, y := b.Var("x"), b.Var("y")
	p0 := b.Thread()
	p0.StoreImm(x, 1)
	p0.Load(program.R0, y)
	p1 := b.Thread()
	p1.StoreImm(y, 1)
	p1.Load(program.R0, x)
	return b.MustBuild()
}

// DekkerForbidden reports whether a result of Dekker exhibits the
// sequential-consistency violation: both reads returned zero.
func DekkerForbidden(r mem.Result) bool {
	a, okA := r.Reads[mem.OpID{Proc: 0, Index: 1}]
	bb, okB := r.Reads[mem.OpID{Proc: 1, Index: 1}]
	return okA && okB && a.Value == 0 && bb.Value == 0
}

// DekkerSync is Dekker with every access made a synchronization
// operation. Conflicting accesses are then always ordered by the
// synchronization order, so the program obeys DRF0, and weakly ordered
// hardware (Definition 2) must never produce the forbidden outcome.
func DekkerSync() *program.Program {
	b := program.NewBuilder("dekker-sync")
	x, y := b.Var("x"), b.Var("y")
	p0 := b.Thread()
	p0.SyncStoreImm(x, 1)
	p0.SwapImm(program.R0, y, 0) // sync read-modify-write observing y
	p1 := b.Thread()
	p1.SyncStoreImm(y, 1)
	p1.SwapImm(program.R0, x, 0)
	return b.MustBuild()
}

// MessagePassing is the synchronized producer/consumer handoff:
//
//	P0: data = 42; Set(flag)     P1: spin until Test(flag); r0 = data
//
// The flag accesses are synchronization operations, so the program obeys
// DRF0 and the consumer must read 42.
func MessagePassing() *program.Program {
	b := program.NewBuilder("mp")
	data, flag := b.Var("data"), b.Var("flag")
	p0 := b.Thread()
	p0.StoreImm(data, 42)
	p0.SyncStoreImm(flag, 1)
	p1 := b.Thread()
	p1.Label("spin")
	p1.SyncLoad(program.R1, flag)
	p1.BeqImm(program.R1, 0, "spin")
	p1.Load(program.R0, data)
	return b.MustBuild()
}

// MessagePassingBounded is MessagePassing with the consumer's spin
// replaced by a single flag test guarding the data read: if the flag is
// not yet set the consumer skips the read. This keeps the idealized
// state space finite for exhaustive enumeration while preserving the
// handoff ordering, so the program still obeys DRF0.
func MessagePassingBounded() *program.Program {
	b := program.NewBuilder("mp-bounded")
	data, flag := b.Var("data"), b.Var("flag")
	p0 := b.Thread()
	p0.StoreImm(data, 42)
	p0.SyncStoreImm(flag, 1)
	p1 := b.Thread()
	p1.SyncLoad(program.R1, flag)
	p1.BeqImm(program.R1, 0, "done")
	p1.Load(program.R0, data)
	p1.Label("done")
	p1.Halt()
	return b.MustBuild()
}

// MessagePassingRacy is message passing with the flag written and read by
// ordinary data accesses: the data accesses race with each other and the
// flag accesses race too, so the program violates DRF0. On weak hardware
// the consumer may observe flag == 1 but data == 0.
func MessagePassingRacy() *program.Program {
	b := program.NewBuilder("mp-racy")
	data, flag := b.Var("data"), b.Var("flag")
	p0 := b.Thread()
	p0.StoreImm(data, 42)
	p0.StoreImm(flag, 1)
	p1 := b.Thread()
	p1.Load(program.R1, flag)
	p1.BeqImm(program.R1, 0, "done")
	p1.Load(program.R0, data)
	p1.Label("done")
	p1.Halt()
	return b.MustBuild()
}

// MessagePassingRacySpin is MessagePassingRacy with the consumer spinning
// on the data flag until it observes 1, then reading data. The spin
// guarantees the consumer sees the flag set, maximizing the window in
// which weak hardware returns stale data.
func MessagePassingRacySpin() *program.Program {
	b := program.NewBuilder("mp-racy-spin")
	data, flag := b.Var("data"), b.Var("flag")
	p0 := b.Thread()
	p0.StoreImm(data, 42)
	p0.StoreImm(flag, 1)
	p1 := b.Thread()
	p1.Label("spin")
	p1.Load(program.R1, flag)
	p1.BeqImm(program.R1, 0, "spin")
	p1.Load(program.R0, data)
	return b.MustBuild()
}

// LoadBuffering is the LB litmus test:
//
//	P0: r0 = X; Y = 1          P1: r1 = Y; X = 1
//
// r0 == 1 && r1 == 1 is impossible under sequential consistency.
func LoadBuffering() *program.Program {
	b := program.NewBuilder("lb")
	x, y := b.Var("x"), b.Var("y")
	p0 := b.Thread()
	p0.Load(program.R0, x)
	p0.StoreImm(y, 1)
	p1 := b.Thread()
	p1.Load(program.R0, y)
	p1.StoreImm(x, 1)
	return b.MustBuild()
}

// IRIW (independent reads of independent writes): two writers, two
// readers that observe the writes in opposite orders — forbidden under SC
// because SC requires a single total write order.
//
//	P0: X = 1    P1: Y = 1
//	P2: r0 = X; r1 = Y
//	P3: r0 = Y; r1 = X
//
// Forbidden: P2 sees (1, 0) and P3 sees (1, 0).
func IRIW() *program.Program {
	b := program.NewBuilder("iriw")
	x, y := b.Var("x"), b.Var("y")
	b.Thread().StoreImm(x, 1)
	b.Thread().StoreImm(y, 1)
	p2 := b.Thread()
	p2.Load(program.R0, x)
	p2.Load(program.R1, y)
	p3 := b.Thread()
	p3.Load(program.R0, y)
	p3.Load(program.R1, x)
	return b.MustBuild()
}

// IRIWForbidden reports whether an IRIW result shows the two readers
// observing the two writes in opposite orders.
func IRIWForbidden(r mem.Result) bool {
	p2x := r.Reads[mem.OpID{Proc: 2, Index: 0}].Value
	p2y := r.Reads[mem.OpID{Proc: 2, Index: 1}].Value
	p3y := r.Reads[mem.OpID{Proc: 3, Index: 0}].Value
	p3x := r.Reads[mem.OpID{Proc: 3, Index: 1}].Value
	return p2x == 1 && p2y == 0 && p3y == 1 && p3x == 0
}

// Coherence is the per-location write-serialization test (condition 2 of
// Section 5.1): one writer produces two values; two readers each read the
// location twice. Readers observing the writes in opposite orders
// violates coherence.
//
//	P0: X = 1; X = 2
//	P1: r0 = X; r1 = X
//	P2: r0 = X; r1 = X
func Coherence() *program.Program {
	b := program.NewBuilder("coherence")
	x := b.Var("x")
	p0 := b.Thread()
	p0.StoreImm(x, 1)
	p0.StoreImm(x, 2)
	for i := 0; i < 2; i++ {
		p := b.Thread()
		p.Load(program.R0, x)
		p.Load(program.R1, x)
	}
	return b.MustBuild()
}

// CriticalSection builds a DRF0 program in which each of procs processors
// acquires a TestAndSet spin lock, increments a shared counter rounds
// times inside the critical section, and releases with Unset. The program
// obeys DRF0: the counter accesses are ordered through the lock's
// synchronization chain.
func CriticalSection(procs, rounds int) *program.Program {
	b := program.NewBuilder(fmt.Sprintf("critsec-%dp-%dr", procs, rounds))
	lock, counter := b.Var("lock"), b.Var("counter")
	for p := 0; p < procs; p++ {
		t := b.Thread()
		for r := 0; r < rounds; r++ {
			acquire := fmt.Sprintf("acq%d", r)
			t.Label(acquire)
			t.TAS(program.R0, lock)
			t.BneImm(program.R0, 0, acquire) // lock held: retry
			t.Load(program.R1, counter)
			t.AddImm(program.R1, program.R1, 1)
			t.Store(counter, program.R1)
			t.SyncStoreImm(lock, 0) // Unset releases the lock
		}
	}
	return b.MustBuild()
}

// TestAndTAS returns TestAndTASWork(procs, rounds, 0).
func TestAndTAS(procs, rounds int) *program.Program {
	return TestAndTASWork(procs, rounds, 0)
}

// TestAndTASWork is CriticalSection with the Section 6 Test&TestAndSet
// acquire: spin with a read-only synchronization Test until the lock
// looks free, then attempt the TestAndSet. Under WO-Def2 the spinning
// Tests serialize as writes; the read-only-synchronization refinement
// removes that serialization (the benefit grows with the critical-section
// length, set by work extra private stores inside the section).
func TestAndTASWork(procs, rounds, work int) *program.Program {
	b := program.NewBuilder(fmt.Sprintf("ttas-%dp-%dr-%dw", procs, rounds, work))
	lock, counter := b.Var("lock"), b.Var("counter")
	for p := 0; p < procs; p++ {
		t := b.Thread()
		priv := b.Var(fmt.Sprintf("priv%d", p))
		for r := 0; r < rounds; r++ {
			spin := fmt.Sprintf("spin%d", r)
			t.Label(spin)
			t.SyncLoad(program.R0, lock) // read-only Test
			t.BneImm(program.R0, 0, spin)
			t.TAS(program.R0, lock)
			t.BneImm(program.R0, 0, spin) // lost the race: spin again
			t.Load(program.R1, counter)
			t.AddImm(program.R1, program.R1, 1)
			t.Store(counter, program.R1)
			for w := 0; w < work; w++ {
				t.StoreImm(priv, mem.Value(w)) // critical-section work
			}
			t.SyncStoreImm(lock, 0)
		}
	}
	return b.MustBuild()
}

// Barrier builds a sense-reversing-free centralized barrier crossed once:
// each processor atomically increments the count with Swap-based
// fetch-and-add emulation... simplified here to a count of arrivals via a
// per-processor arrival flag and a spin on the released flag:
//
//	each P: work writes; Set(arrive_p); spin Test(go) until set
//	P0 additionally: spin Test(arrive_q) for all q; Set(go)
//
// All flag accesses are synchronization operations, so the program obeys
// DRF0 and post-barrier reads must observe pre-barrier writes.
func Barrier(procs int) *program.Program {
	b := program.NewBuilder(fmt.Sprintf("barrier-%dp", procs))
	goFlag := b.Var("go")
	arrive := make([]mem.Addr, procs)
	data := make([]mem.Addr, procs)
	for p := 0; p < procs; p++ {
		arrive[p] = b.Var(fmt.Sprintf("arrive%d", p))
		data[p] = b.Var(fmt.Sprintf("data%d", p))
	}
	for p := 0; p < procs; p++ {
		t := b.Thread()
		t.StoreImm(data[p], mem.Value(100+p)) // pre-barrier write
		t.SyncStoreImm(arrive[p], 1)
		if p == 0 {
			// P0 gathers arrivals then releases everyone.
			for q := 1; q < procs; q++ {
				lbl := fmt.Sprintf("gather%d", q)
				t.Label(lbl)
				t.SyncLoad(program.R0, arrive[q])
				t.BeqImm(program.R0, 0, lbl)
			}
			t.SyncStoreImm(goFlag, 1)
		} else {
			t.Label("wait")
			t.SyncLoad(program.R0, goFlag)
			t.BeqImm(program.R0, 0, "wait")
		}
		// Post-barrier: read the left neighbor's pre-barrier write.
		t.Load(program.R2, data[(p+procs-1)%procs])
	}
	return b.MustBuild()
}

// RacyCounter increments a shared counter from every processor without any
// synchronization — the canonical data race.
func RacyCounter(procs, rounds int) *program.Program {
	b := program.NewBuilder(fmt.Sprintf("racy-counter-%dp-%dr", procs, rounds))
	counter := b.Var("counter")
	for p := 0; p < procs; p++ {
		t := b.Thread()
		for r := 0; r < rounds; r++ {
			t.Load(program.R1, counter)
			t.AddImm(program.R1, program.R1, 1)
			t.Store(counter, program.R1)
		}
	}
	return b.MustBuild()
}

// All returns the full library of named litmus programs with small,
// enumeration-friendly parameters, for table-driven tests.
func All() []*program.Program {
	return []*program.Program{
		Dekker(),
		DekkerSync(),
		MessagePassing(),
		MessagePassingBounded(),
		MessagePassingRacy(),
		LoadBuffering(),
		IRIW(),
		Coherence(),
		CriticalSection(2, 1),
		TestAndTAS(2, 1),
		Barrier(2),
		RacyCounter(2, 1),
	}
}
