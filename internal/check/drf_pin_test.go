package check

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"weakorder/internal/drf"
	"weakorder/internal/hb"
	"weakorder/internal/ideal"
	"weakorder/internal/litmus"
	"weakorder/internal/machine"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/scmatch"
	"weakorder/internal/vclock"
	"weakorder/internal/workload"
)

// drfFamilies returns the programs the DRF0 pins run over, in a fixed
// order: the litmus suite, every generator of the catalog at seeds
// 0..seeds-1, every candidate Shrink offers for each generator's first
// shrinkSeeds programs, and the committed corpus. The shrink candidates
// are collected with a predicate that records each candidate and
// accepts none, so they are exactly what one sweep of the shrinker
// would ask the campaign to classify.
func drfFamilies(t *testing.T, seeds, shrinkSeeds int) []*program.Program {
	t.Helper()
	progs := append([]*program.Program(nil), litmus.All()...)
	specs := generators()
	for _, spec := range specs {
		for s := 0; s < seeds; s++ {
			progs = append(progs, spec.make(int64(s)))
		}
	}
	for _, spec := range specs {
		for s := 0; s < shrinkSeeds; s++ {
			Shrink(spec.make(int64(s)), func(cand *program.Program) bool {
				progs = append(progs, cand)
				return false
			}, 1<<20)
		}
	}
	entries, err := LoadCorpus(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		progs = append(progs, e.Prog)
	}
	return progs
}

// inParallel calls fn(i) for every i in [0, n) on GOMAXPROCS
// goroutines and returns when all calls have.
func inParallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// drfWalkConfig is the enumeration drf.Check performs under the
// campaign's bounded configuration.
func drfWalkConfig() ideal.EnumConfig {
	cfg := boundedDRFConfig().Enum
	cfg.PreserveSyncOrder = true
	return cfg
}

// TestDRFCheckDigest pins the campaign's DRF0 classification and the
// walk beneath it on a fixed program set: for each program, drf.Check's
// verdict under boundedDRFConfig (DRF, Executions, Truncated, the
// formatted races and any error) and the full walk's ideal.EnumStats
// (Executions, Steps, Truncated, SleepPruned, MemoHits). A change to how
// the interpreter stores its state, how the walkers share paths, or how
// an execution's races are decided must leave the digest alone; moving
// it means a verdict, a witness, a budget or a count changed.
func TestDRFCheckDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size pin; skipped in -short")
	}
	const want = "254a4b3cfdb6c40b6f4502d42e0f5d5691857977fd433daaa82c8af32e2b1bf5"
	progs := drfFamilies(t, 50, 8)
	lines := make([]string, len(progs))
	type tally struct{ drf, execs, steps int }
	tallies := make([]tally, len(progs))
	inParallel(len(progs), func(i int) {
		p := progs[i]
		var b strings.Builder
		v, err := drf.Check(p, hb.SyncAll, boundedDRFConfig())
		fmt.Fprintf(&b, "%d %s drf=%v execs=%d trunc=%d err=%v\n", i, p.Name, v.DRF, v.Executions, v.Truncated, err)
		for _, r := range v.Races {
			fmt.Fprintf(&b, "  %v\n", r)
		}
		stats, err := ideal.Enumerate(p, drfWalkConfig(), func(*ideal.Interp) error { return nil })
		fmt.Fprintf(&b, "  walk execs=%d steps=%d trunc=%d slept=%d memo=%d err=%v\n",
			stats.Executions, stats.Steps, stats.Truncated, stats.SleepPruned, stats.MemoHits, err)
		lines[i] = b.String()
		tallies[i] = tally{execs: stats.Executions, steps: stats.Steps}
		if v.DRF {
			tallies[i].drf = 1
		}
	})
	h := sha256.New()
	var sum tally
	for i, line := range lines {
		h.Write([]byte(line))
		sum.drf += tallies[i].drf
		sum.execs += tallies[i].execs
		sum.steps += tallies[i].steps
	}
	got := fmt.Sprintf("%x", h.Sum(nil))
	t.Logf("%d programs (%d DRF), %d walk executions, %d walk steps", len(progs), sum.drf, sum.execs, sum.steps)
	if got != want {
		t.Errorf("DRF0 digest drifted:\n got  %s\n want %s", got, want)
	}
}

// TestDRFDetectorAgreesWithAugmentedHB is the differential behind
// drf.Check's decision: on every execution the bounded walk visits, a
// vector-clock pass over the execution's operations finds a race
// exactly when the augmented happens-before graph has a race between
// two real operations, in all three synchronization modes. Unlike
// vclock's TestDetectorAgreesWithHB it compares against the augmented
// graph the checker explains with, and it does not stop early.
func TestDRFDetectorAgreesWithAugmentedHB(t *testing.T) {
	seeds, shrinkSeeds, stride := 50, 8, 1
	if testing.Short() {
		seeds, shrinkSeeds, stride = 10, 2, 4
	}
	modes := []hb.SyncMode{hb.SyncAll, hb.SyncWriterOrdered, hb.SyncPairedRA}
	progs := drfFamilies(t, seeds, shrinkSeeds)
	var execs atomic.Int64
	racy := make([]atomic.Int64, len(modes))
	inParallel((len(progs)+stride-1)/stride, func(i int) {
		p := progs[i*stride]
		// The walk may end early on a budget or a local loop; every
		// execution it visited before that has been compared.
		ideal.Enumerate(p, drfWalkConfig(), func(it *ideal.Interp) error {
			execs.Add(1)
			e := it.Execution()
			for m, mode := range modes {
				vc := len(vclock.CheckExecution(e, mode)) > 0
				aug := len(hb.RealRaces(hb.BuildAugmented(e, p.Init, mode).Races())) > 0
				if vc != aug {
					t.Errorf("%s [%v]: vector clocks say racy=%v, augmented hb says racy=%v\n%v", p.Name, mode, vc, aug, e)
					return ideal.ErrStop
				}
				if vc {
					racy[m].Add(1)
				}
			}
			return nil
		})
	})
	t.Logf("%d executions compared; racy under %v/%v/%v: %d/%d/%d", execs.Load(),
		modes[0], modes[1], modes[2], racy[0].Load(), racy[1].Load(), racy[2].Load())
}

// TestNaiveWalkDigest pins ideal.Enumerate with reduction off, the walk
// that EnumerateSC, postcondition checks and programs wider than the
// sleep-set mask take. For each program of drfFamilies it walks two
// configurations, one that skips truncated paths and one that fails on
// the first, and digests every EnumStats field, the error, and each
// visited execution's (Proc, Index, Got) sequence in visit order. It
// also pins OK and States of the one appears-SC query past the
// sleep-set mask: Figure 3 scaled to 72 threads under WO-Def2 on the
// mesh. A change to how the walk is structured must leave the digest
// alone; moving it means an execution, its order, a budget or a count
// changed.
func TestNaiveWalkDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size pin; skipped in -short")
	}
	const want = "20db98b636000fb6542c21879f05b44323c1a54192cf52ffe6d40a933962197d"
	cfgs := []ideal.EnumConfig{
		{Interp: ideal.Config{MaxMemOpsPerThread: 16}, SkipTruncated: true, MaxPaths: 20_000},
		{Interp: ideal.Config{MaxMemOpsPerThread: 6}, MaxPaths: 20_000},
	}
	progs := drfFamilies(t, 20, 4)
	sums := make([][]byte, len(progs))
	var execs, truncErrs atomic.Int64
	inParallel(len(progs), func(i int) {
		p := progs[i]
		h := sha256.New()
		var buf []byte
		for c, cfg := range cfgs {
			fmt.Fprintf(h, "%d %s cfg%d\n", i, p.Name, c)
			stats, err := ideal.Enumerate(p, cfg, func(it *ideal.Interp) error {
				buf = buf[:0]
				for _, op := range it.Trace() {
					buf = binary.AppendVarint(buf, int64(op.Proc))
					buf = binary.AppendVarint(buf, int64(op.Index))
					buf = binary.AppendVarint(buf, int64(op.Got))
				}
				buf = append(buf, '\n')
				h.Write(buf)
				return nil
			})
			fmt.Fprintf(h, "execs=%d trunc=%d steps=%d slept=%d memo=%d err=%v\n",
				stats.Executions, stats.Truncated, stats.Steps, stats.SleepPruned, stats.MemoHits, err)
			execs.Add(int64(stats.Executions))
			if errors.Is(err, ideal.ErrTruncated) {
				truncErrs.Add(1)
			}
		}
		sums[i] = h.Sum(nil)
	})
	h := sha256.New()
	for _, s := range sums {
		h.Write(s)
	}
	p := workload.Fig3Scaled(72)
	res, err := machine.Run(p, machine.Config{Policy: policy.WODef2, Topology: machine.TopoMesh, Caches: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := scmatch.Matches(p, res.Result, scmatch.Config{})
	fmt.Fprintf(h, "fig3x72 ok=%v states=%d err=%v\n", m.OK, m.States, err)
	t.Logf("%d programs, %d executions visited, %d walks ended in ErrTruncated; %d-thread query: ok=%v, %d states",
		len(progs), execs.Load(), truncErrs.Load(), p.NumThreads(), m.OK, m.States)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("naive walk digest drifted:\n got  %s\n want %s", got, want)
	}
}
