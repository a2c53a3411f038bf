package axiom

import (
	"testing"

	"weakorder/internal/litmus"
)

// FuzzParse feeds hostile text to the .cat parser, which reads the
// models woaxiom loads from disk. Parse must never panic; a model it
// accepts must dump the same text every time, and parsing the same
// source again must dump the same text; and checking litmus.SB() under
// it must return a verdict or an error, never panic. The seeds are the
// bundled models and the sources of TestParseErrors.
func FuzzParse(f *testing.F) {
	for _, name := range ModelNames() {
		src, err := modelFS.ReadFile(modelDir + "/" + name + ".cat")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, c := range badModels {
		f.Add(c.src)
	}
	sb := litmus.SB()
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse("fuzz", src)
		if err != nil {
			return
		}
		dump := m.Dump()
		if again := m.Dump(); again != dump {
			t.Fatalf("Parse(%q): Dump is not deterministic:\n%s\nthen\n%s", src, dump, again)
		}
		m2, err := Parse("fuzz", src)
		if err != nil {
			t.Fatalf("Parse(%q) accepted once, then failed: %v", src, err)
		}
		if again := m2.Dump(); again != dump {
			t.Fatalf("Parse(%q) twice dumps differently:\n%s\nthen\n%s", src, dump, again)
		}
		v, err := Check(sb, m, Config{MaxSteps: 20_000})
		if err == nil && v == nil {
			t.Fatalf("Check under Parse(%q) returned neither a verdict nor an error", src)
		}
	})
}
