package lang_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"weakorder/internal/gen"
	"weakorder/internal/ideal"
	"weakorder/internal/lang"
	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// library returns every program the round-trip property is checked over:
// the full built-in litmus library, the classic suite, the paper figures,
// and a spread of generated programs (the shrinker in internal/check
// emits reproducers through Format, so faithful round-tripping over the
// generators' whole output shape is load-bearing).
func library() []*program.Program {
	progs := litmus.All()
	progs = append(progs,
		litmus.MessagePassingRacySpin(),
		litmus.Figure3(),
		litmus.Figure3Work(4),
		litmus.TestAndTASWork(2, 1, 3),
		litmus.CriticalSection(3, 2),
		litmus.Barrier(3),
		litmus.RacyCounter(3, 2),
	)
	for _, tc := range litmus.Classic() {
		progs = append(progs, tc.Prog)
	}
	for seed := int64(0); seed < 8; seed++ {
		progs = append(progs,
			gen.RaceFree(gen.RaceFreeConfig{}, seed),
			gen.RaceFree(gen.RaceFreeConfig{Procs: 3, TTAS: true}, seed),
			gen.Handoff(gen.HandoffConfig{}, seed),
			gen.Handoff(gen.HandoffConfig{Stages: 2, Items: 3}, seed),
			gen.Racy(gen.RacyConfig{}, seed),
			gen.Racy(gen.RacyConfig{Procs: 3, SyncFraction: 2}, seed),
		)
	}
	return progs
}

// The text format names locations symbolically, so Parse(Format(p))
// reproduces p up to a consistent renaming of addresses (Parse allocates
// addresses in first-use order). The properties below are therefore:
//
//  1. Format(p) parses back without error;
//  2. formatting is idempotent: Format(Parse(Format(p))) == Format(p)
//     (corpus files are stable under re-emission);
//  3. the reparsed program is structurally identical modulo the address
//     renaming: same threads, same instruction streams (opcode,
//     registers, immediates, branch targets, symbolic locations), same
//     initial memory by name, equivalent postcondition;
//  4. running both under the same idealized schedule yields identical
//     observable results (reads + final memory), compared by name.
func TestRoundTripLibrary(t *testing.T) {
	for _, p := range library() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			f1 := lang.Format(p)
			p2, err := lang.Parse(f1)
			if err != nil {
				t.Fatalf("reparse failed: %v\n%s", err, f1)
			}
			if err := p2.Validate(); err != nil {
				t.Fatalf("reparsed program invalid: %v", err)
			}
			f2 := lang.Format(p2)
			if f1 != f2 {
				t.Fatalf("format not idempotent:\n--- first\n%s\n--- second\n%s", f1, f2)
			}
			if err := structurallyEqual(p, p2); err != nil {
				t.Fatalf("round trip changed the program: %v\n%s", err, f1)
			}
			// Once through the round trip, further trips must be exact:
			// corpus files are parsed, possibly re-emitted, and re-parsed,
			// and machine behavior depends on raw addresses.
			p3, err := lang.Parse(f2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p2, p3) {
				t.Fatalf("parse/format fixpoint violated:\n%s", f2)
			}
		})
	}
}

// TestRoundTripSemantics runs original and round-tripped programs under
// the same idealized schedule and demands identical observable results.
func TestRoundTripSemantics(t *testing.T) {
	for _, p := range library() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			p2, err := lang.Parse(lang.Format(p))
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				a, err := ideal.RunSeed(p, ideal.Config{}, seed)
				if err != nil {
					t.Fatal(err)
				}
				b, err := ideal.RunSeed(p2, ideal.Config{}, seed)
				if err != nil {
					t.Fatal(err)
				}
				ka := symbolicKey(p, mem.ResultOf(a.Execution()))
				kb := symbolicKey(p2, mem.ResultOf(b.Execution()))
				if ka != kb {
					t.Fatalf("seed %d: results diverge:\n  original: %s\n  reparsed: %s", seed, ka, kb)
				}
			}
		})
	}
}

// locName resolves an address to its symbol, falling back to the
// formatter's v<addr> spelling for anonymous locations.
func locName(p *program.Program, a mem.Addr) string {
	if s := p.SymbolFor(a); s != "" {
		return s
	}
	return fmt.Sprintf("v%d", a)
}

func structurallyEqual(a, b *program.Program) error {
	if len(a.Threads) != len(b.Threads) {
		return fmt.Errorf("thread count %d != %d", len(a.Threads), len(b.Threads))
	}
	for ti := range a.Threads {
		ta, tb := &a.Threads[ti], &b.Threads[ti]
		if ta.Name != tb.Name {
			return fmt.Errorf("thread %d name %q != %q", ti, ta.Name, tb.Name)
		}
		if len(ta.Instrs) != len(tb.Instrs) {
			return fmt.Errorf("%s: instruction count %d != %d", ta.Name, len(ta.Instrs), len(tb.Instrs))
		}
		for i := range ta.Instrs {
			ia, ib := ta.Instrs[i], tb.Instrs[i]
			if ia.Op.IsMemory() {
				na, nb := locName(a, ia.Addr), locName(b, ib.Addr)
				if na != nb {
					return fmt.Errorf("%s@%d: location %q != %q", ta.Name, i, na, nb)
				}
			}
			// Addr is compared by name above; Sym is diagnostic only.
			ia.Addr, ib.Addr = 0, 0
			ia.Sym, ib.Sym = "", ""
			if ia != ib {
				return fmt.Errorf("%s@%d: %+v != %+v", ta.Name, i, ta.Instrs[i], tb.Instrs[i])
			}
		}
	}
	if err := initEqual(a, b); err != nil {
		return err
	}
	switch {
	case a.Cond == nil && b.Cond == nil:
	case a.Cond == nil || b.Cond == nil:
		return fmt.Errorf("postcondition presence differs")
	case a.Cond.String() != b.Cond.String():
		return fmt.Errorf("postcondition %q != %q", a.Cond, b.Cond)
	}
	return nil
}

// initEqual compares initial memory by symbol name, treating absent
// entries as zero.
func initEqual(a, b *program.Program) error {
	byName := func(p *program.Program) map[string]mem.Value {
		out := make(map[string]mem.Value)
		for addr, v := range p.Init {
			if v != 0 {
				out[locName(p, addr)] = v
			}
		}
		return out
	}
	na, nb := byName(a), byName(b)
	for k, v := range na {
		if nb[k] != v {
			return fmt.Errorf("init %s: %d != %d", k, v, nb[k])
		}
	}
	for k, v := range nb {
		if na[k] != v {
			return fmt.Errorf("init %s: %d != %d", k, na[k], v)
		}
	}
	return nil
}

// symbolicKey is mem.Result.Key with addresses replaced by their symbol
// names, so results of address-renamed programs compare equal.
func symbolicKey(p *program.Program, r mem.Result) string {
	var sb strings.Builder
	for _, obs := range r.Reads {
		fmt.Fprintf(&sb, "%s[%s]=%d;", obs.ID, locName(p, obs.Addr), obs.Value)
	}
	sb.WriteByte('|')
	finals := make([]string, 0, len(r.Final))
	for a, v := range r.Final {
		if v != 0 {
			finals = append(finals, fmt.Sprintf("%s=%d", locName(p, a), v))
		}
	}
	sort.Strings(finals)
	sb.WriteString(strings.Join(finals, ";"))
	return sb.String()
}
