// Package workload builds the parameterized synthetic workloads driving
// the quantitative study the paper proposes as future work ("a
// quantitative performance analysis comparing implementations for the old
// and new definitions of weak ordering"): data-per-synchronization
// sweeps, producer/consumer pipelines, synchronization-free parallel
// writes, and the Figure 3 release/acquire scenario scaled to large
// machines. The spin-lock, Test&TestAndSet and barrier workloads live in
// internal/litmus. All workloads obey DRF0 by construction, so every
// weakly ordered policy must produce sequentially consistent results
// while differing (sometimes sharply) in cycles.
package workload

import (
	"fmt"

	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// Fig3Scaled scales the Figure 3 release/acquire scenario to procs
// processors: every processor but the releaser first reads x (becoming a
// sharer) and raises a per-processor ready flag; the releaser acquires
// all flags, writes x — invalidating the procs-1 shared copies — and
// releases s; the acquirer then reads x. The write's global performance
// now waits on procs-1 invalidation acknowledgements, so Definition 1's
// stall at the release grows with the machine while the Section 5.3
// implementation's stays flat (the acquirer's forwarded request waits on
// the reserve bit instead). DRF0 holds by construction: every sharer's
// read is ordered before W(x) through its flag, and the acquirer's final
// read after W(x) through s.
func Fig3Scaled(procs int) *program.Program {
	if procs < 3 {
		procs = 3
	}
	b := program.NewBuilder(fmt.Sprintf("fig3scaled-%dp", procs))
	x := b.Var("x")
	s := b.Var("s")
	out := b.Var("out")
	flags := make([]mem.Addr, procs)
	for i := 1; i < procs; i++ {
		flags[i] = b.Var(fmt.Sprintf("f%d", i))
	}

	rel := b.NamedThread("releaser")
	for i := 1; i < procs; i++ {
		spin := fmt.Sprintf("wait%d", i)
		rel.Label(spin)
		rel.SyncLoad(program.R0, flags[i])
		rel.BltImm(program.R0, 1, spin)
	}
	rel.StoreImm(x, 1)
	rel.SyncStoreImm(s, 1)

	acq := b.NamedThread("acquirer")
	acq.Load(program.R1, x)
	acq.SyncStoreImm(flags[1], 1)
	acq.Label("acq")
	acq.SyncLoad(program.R0, s)
	acq.BltImm(program.R0, 1, "acq")
	acq.Load(program.R2, x)
	acq.Store(out, program.R2)

	for i := 2; i < procs; i++ {
		sh := b.NamedThread(fmt.Sprintf("sharer%d", i))
		sh.Load(program.R0, x)
		sh.SyncStoreImm(flags[i], 1)
	}
	return b.MustBuild()
}

// DataPerSync builds the sync-amortization workload: each processor
// executes rounds of (dataOps independent data writes to its own shard of
// a shared array, then one release/acquire on a per-neighbor flag). The
// flags form a ring handoff: processor i releases flag i and acquires
// flag (i+1) mod procs, so each round globally synchronizes the ring.
// Varying dataOps sweeps the data:synchronization ratio — the axis along
// which SC, Definition 1 and the new implementation separate.
func DataPerSync(procs, rounds, dataOps int) *program.Program {
	b := program.NewBuilder(fmt.Sprintf("datasync-%dp-%dr-%dd", procs, rounds, dataOps))
	flags := make([]mem.Addr, procs)
	for i := range flags {
		flags[i] = b.Var(fmt.Sprintf("flag%d", i))
	}
	for pi := 0; pi < procs; pi++ {
		th := b.Thread()
		for r := 0; r < rounds; r++ {
			for d := 0; d < dataOps; d++ {
				v := b.Var(fmt.Sprintf("d%d_%d", pi, d))
				th.StoreImm(v, mem.Value(r*100+d))
			}
			// Release own flag (stamped with the round), then acquire the
			// right neighbor's flag for this round.
			th.SyncStoreImm(flags[pi], mem.Value(r+1))
			next := flags[(pi+1)%procs]
			spin := fmt.Sprintf("spin%d", r)
			th.Label(spin)
			th.SyncLoad(program.R0, next)
			th.BltImm(program.R0, mem.Value(r+1), spin)
		}
	}
	return b.MustBuild()
}

// ProducerConsumer builds pairs independent producer/consumer couples:
// each producer writes items values into its slot, setting a flag the
// consumer spins on; the consumer acknowledges through a second flag.
// Flags are synchronization variables; slots are data — a DRF0 handoff
// pipeline whose throughput is bounded by synchronization latency.
func ProducerConsumer(pairs, items int) *program.Program {
	b := program.NewBuilder(fmt.Sprintf("prodcons-%dx%d", pairs, items))
	for pr := 0; pr < pairs; pr++ {
		slot := b.Var(fmt.Sprintf("slot%d", pr))
		full := b.Var(fmt.Sprintf("full%d", pr))
		ack := b.Var(fmt.Sprintf("ack%d", pr))

		prod := b.NamedThread(fmt.Sprintf("prod%d", pr))
		for it := 0; it < items; it++ {
			prod.StoreImm(slot, mem.Value(1000+it))
			prod.SyncStoreImm(full, mem.Value(it+1))
			wait := fmt.Sprintf("wait%d", it)
			prod.Label(wait)
			prod.SyncLoad(program.R0, ack)
			prod.BltImm(program.R0, mem.Value(it+1), wait)
		}

		cons := b.NamedThread(fmt.Sprintf("cons%d", pr))
		for it := 0; it < items; it++ {
			wait := fmt.Sprintf("wait%d", it)
			cons.Label(wait)
			cons.SyncLoad(program.R0, full)
			cons.BltImm(program.R0, mem.Value(it+1), wait)
			cons.Load(program.R1, slot)
			cons.Store(b.Var(fmt.Sprintf("out%d", pr)), program.R1)
			cons.SyncStoreImm(ack, mem.Value(it+1))
		}
	}
	return b.MustBuild()
}

// FalseShare builds a workload where processors write disjoint variables
// with no synchronization at all (embarrassingly parallel): the baseline
// where consistency policies should differ least.
func FalseShare(procs, writes int) *program.Program {
	b := program.NewBuilder(fmt.Sprintf("parallel-%dp-%dw", procs, writes))
	for pi := 0; pi < procs; pi++ {
		th := b.Thread()
		for w := 0; w < writes; w++ {
			th.StoreImm(b.Var(fmt.Sprintf("v%d_%d", pi, w%8)), mem.Value(w))
		}
	}
	return b.MustBuild()
}
