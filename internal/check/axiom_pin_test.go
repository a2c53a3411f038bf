package check

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"weakorder/internal/axiom"
	"weakorder/internal/litmus"
	"weakorder/internal/program"
)

// TestAxiomCheckDigest pins the axiomatic engine's run enumeration and
// the candidate search above it on a fixed program set: the litmus
// suite and 52 programs of each generator, every bundled model, at the
// differential's per-thread budget of 6 memory operations. For each
// check it digests the error, every Stats field, the sorted outcome
// keys and the flag counts. TestAxiomVsOperationalOracles checks only
// that the two sides agree; this pins how the axiomatic side gets
// there, so a change to how a thread's runs are enumerated (the fork
// order over unpinned reads, truncation, the value-domain fixpoint)
// must leave the digest alone. Moving it means an outcome, a flag, a
// budget or a count changed.
func TestAxiomCheckDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size pin; skipped in -short")
	}
	const want = "e31eaae8ae737487bf69a5b3bca33959e65de23bbefd058751c24c187ef4b70b"
	progs := append([]*program.Program(nil), litmus.All()...)
	for si, spec := range generators() {
		for i := 0; i < 52; i++ {
			progs = append(progs, spec.make(deriveSeed(11, uint64(si), uint64(i))))
		}
	}
	models := axiom.ModelNames()
	lines := make([]string, len(progs))
	var errs, truncated, incomplete atomic.Int64
	inParallel(len(progs), func(i int) {
		p := progs[i]
		var b strings.Builder
		for _, name := range models {
			v, err := axiom.Check(p, axiom.MustLoad(name), axiom.Config{MaxMemOpsPerThread: 6})
			fmt.Fprintf(&b, "%d %s %s err=%v\n", i, p.Name, name, err)
			if err != nil {
				errs.Add(1)
				continue
			}
			if v.Stats.Truncated {
				truncated.Add(1)
			}
			if !v.Stats.Complete {
				incomplete.Add(1)
			}
			fmt.Fprintf(&b, "  %+v\n", v.Stats)
			keys := make([]string, 0, len(v.Outcomes))
			for k := range v.Outcomes {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "  %q\n", k)
			}
			flags := make([]string, 0, len(v.Flags))
			for f := range v.Flags {
				flags = append(flags, f)
			}
			slices.Sort(flags)
			for _, f := range flags {
				fmt.Fprintf(&b, "  flag %s=%d\n", f, v.Flags[f])
			}
		}
		lines[i] = b.String()
	})
	h := sha256.New()
	for _, line := range lines {
		h.Write([]byte(line))
	}
	got := fmt.Sprintf("%x", h.Sum(nil))
	t.Logf("%d programs x %d models: %d errors, %d truncated, %d incomplete",
		len(progs), len(models), errs.Load(), truncated.Load(), incomplete.Load())
	if got != want {
		t.Errorf("axiom digest drifted:\n got  %s\n want %s", got, want)
	}
}
