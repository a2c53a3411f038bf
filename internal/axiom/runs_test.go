package axiom

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"weakorder/internal/gen"
	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// symbolicPrograms exercise what the run enumerator adds to plain
// execution: an instruction reading two unpinned reads (which one it
// forks on first), mov carrying an unpinned read into a branch and a
// store, a swap storing one, fences as events, and a store of an
// unpinned read at the memory-op budget (truncation comes first).
func symbolicPrograms() []*program.Program {
	var out []*program.Program
	b := program.NewBuilder("add-two-reads")
	x, y, z := b.Var("x"), b.Var("y"), b.Var("z")
	th := b.Thread()
	th.Load(program.R1, x).Load(program.R2, y)
	th.Add(program.R3, program.R1, program.R2).Sub(program.R4, program.R2, program.R1)
	th.Store(z, program.R3).Store(z, program.R4)
	b.Thread().StoreImm(x, 1).StoreImm(y, 2).StoreImm(x, 3)
	out = append(out, b.MustBuild())

	b = program.NewBuilder("mov-branch-fence")
	x, y, z = b.Var("x"), b.Var("y"), b.Var("z")
	th = b.Thread()
	th.Load(program.R1, x).Mov(program.R2, program.R1).Load(program.R3, y)
	th.Fence().Bne(program.R3, program.R2, "skip")
	th.StoreImm(z, 1)
	th.Label("skip").Fence().Store(z, program.R2)
	th = b.Thread()
	th.StoreImm(y, 1).Fence().StoreImm(x, 1)
	th.Swap(program.R1, y, program.R1).AddImm(program.R1, program.R1, 4).Store(x, program.R1)
	out = append(out, b.MustBuild())

	b = program.NewBuilder("store-at-budget")
	w, x := b.Var("w"), b.Var("x")
	th = b.Thread()
	th.StoreImm(w, 5).Load(program.R1, x).Load(program.R2, x).Load(program.R3, x)
	th.Load(program.R4, x).Load(program.R5, x).Store(w, program.R1)
	th = b.Thread()
	th.Label("top").Load(program.R1, x).AddImm(program.R1, program.R1, 1)
	th.Store(x, program.R1).BltImm(program.R1, 3, "top")
	out = append(out, b.MustBuild())
	return out
}

// TestRunEnumerationDigest pins the per-thread runs the enumerator
// builds, in the order it builds them: for each program, the value
// domains computeDomains settles on, and then, per thread, every event
// of every complete run (kind, address, ordinal, value written, value
// read and whether it is pinned, fences included), the truncation flag
// and the writes of truncated prefixes. The candidate search above it
// counts and keys what it finds, so it does not see the fork order over
// unpinned reads; this does.
func TestRunEnumerationDigest(t *testing.T) {
	const want = "8fa700ed29f13b9183142e1b874865c600a283ed6dd587544bcc4c84b5c0cddc"
	progs := append(litmus.All(), symbolicPrograms()...)
	for s := int64(0); s < 16; s++ {
		progs = append(progs,
			gen.Racy(gen.RacyConfig{Procs: 2, Vars: 3, OpsPerProc: 5, SyncFraction: 4}, s),
			gen.RaceFree(gen.RaceFreeConfig{Procs: 2, Locks: 1, SharedPerLock: 1, PrivatePerProc: 1,
				Sections: 1, OpsPerSection: 1, PrivateOps: 1, TTAS: true}, s),
			gen.Handoff(gen.HandoffConfig{Stages: 2, Items: 2, Work: 1}, s))
	}
	h := sha256.New()
	nruns := 0
	for i, p := range progs {
		cfg := Config{MaxMemOpsPerThread: 6}.withDefaults()
		dom, complete, err := computeDomains(p, &cfg)
		fmt.Fprintf(h, "%d %s complete=%v err=%v\n", i, p.Name, complete, err)
		if err != nil {
			continue
		}
		addrs := make([]mem.Addr, 0, len(dom))
		for a := range dom {
			addrs = append(addrs, a)
		}
		slices.Sort(addrs)
		for _, a := range addrs {
			fmt.Fprintf(h, " dom %d=%v", a, dom[a])
		}
		runs, overflow, err := enumerateRuns(p, dom, &cfg)
		fmt.Fprintf(h, "\n overflow=%v err=%v\n", overflow, err)
		for tid, tr := range runs {
			fmt.Fprintf(h, " thread %d truncated=%v cutMaxW=%d cut=%v\n", tid, tr.truncated, tr.cutMaxW, tr.cutWrites)
			for _, run := range tr.runs {
				fmt.Fprintf(h, "  %v\n", run)
			}
			nruns += len(tr.runs)
		}
	}
	got := fmt.Sprintf("%x", h.Sum(nil))
	t.Logf("%d programs, %d runs", len(progs), nruns)
	if got != want {
		t.Errorf("run enumeration digest drifted:\n got  %s\n want %s", got, want)
	}
}
