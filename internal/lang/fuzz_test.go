package lang_test

import (
	"os"
	"path/filepath"
	"testing"

	"weakorder/internal/lang"
	"weakorder/internal/litmus"
)

// FuzzParse feeds hostile text to the litmus parser, which reads corpus
// reproducers from disk (check.LoadCorpus, check.Replay). Parse must
// never panic, a program it accepts must pass Validate, Format of that
// program must parse back, and Format must be idempotent on it. The
// seeds are the committed corpus and the litmus library.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "check", "testdata", "corpus", "*.litmus"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	for _, p := range litmus.All() {
		f.Add(lang.Format(p))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := lang.Parse(src)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted program fails Validate: %v\n%s", err, src)
		}
		text := lang.Format(p)
		q, err := lang.Parse(text)
		if err != nil {
			t.Fatalf("Format output does not parse: %v\n%s", err, text)
		}
		if again := lang.Format(q); again != text {
			t.Fatalf("Format is not idempotent:\n--- first\n%s--- second\n%s", text, again)
		}
	})
}
