package axiom

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata")

// TestBundledModelsGolden parses every bundled model and compares its
// s-expression parse tree against testdata/models/<name>.golden.
// Regenerate with: go test ./internal/axiom -run Golden -update
func TestBundledModelsGolden(t *testing.T) {
	for _, name := range ModelNames() {
		t.Run(name, func(t *testing.T) {
			m, err := Load(name)
			if err != nil {
				t.Fatalf("Load(%q): %v", name, err)
			}
			got := m.Dump()
			golden := filepath.Join("testdata", "models", name+".golden")
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("parse tree diverged from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}

// TestParsePrecedence pins the operator precedence and the postfix-star
// disambiguation via dump forms.
func TestParsePrecedence(t *testing.T) {
	cases := []struct {
		src  string
		want string // dump of the single constraint's expression
	}{
		// | < \ < & < ; < * (cross), left-associative.
		{"empty po | rf \\ co", "(| po (\\ rf co))"},
		{"empty po \\ rf \\ co", "(\\ (\\ po rf) co)"},
		{"empty po & loc | rf", "(| (& po loc) rf)"},
		{"empty po ; rf & loc", "(& (; po rf) loc)"},
		{"empty W * R | po", "(| (* W R) po)"},
		{"empty rf ; W * R", "(; rf (* W R))"},
		// Postfix binds tightest; star is postfix when nothing follows.
		{"empty (po | so)+", "(+ (| po so))"},
		{"empty po ; rf?", "(; po (? rf))"},
		{"empty rf^-1 ; co", "(; (^-1 rf) co)"},
		{"empty po*", "(* po)"},
		{"empty po* ; rf", "(; (* po) rf)"},
		// Star as cross product when an expression follows.
		{"empty W * R", "(* W R)"},
		{"empty [W] ; po", "(; (diag W) po)"},
		{"empty _ * F", "(* _ F)"},
		// Nested comments vanish.
		{"empty po (* a (* nested *) b *) | rf", "(| po rf)"},
	}
	for _, c := range cases {
		m, err := Parse("t", c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		var b strings.Builder
		m.Constraints[0].Expr.dump(&b)
		if b.String() != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.src, b.String(), c.want)
		}
	}
}

// badModels are sources Parse must reject, each with a substring its
// error must contain; FuzzParse seeds from them too.
var badModels = []struct {
	src  string
	frag string // substring the error must contain
}{
	{"", "no constraints"},
	{"let x = po", "no constraints"},
	{"empty nope", "unknown name"},
	{"let po = rf\nempty po", "shadows a primitive"},
	{"let x = po\nlet x = rf\nempty x", "duplicate let"},
	{"empty po ^ rf", "only ^-1"},
	{"acyclic (po", "expected ')'"},
	{"empty [W ; po", "expected ']'"},
	{"empty W ; R", "needs relations"},
	{"empty po * rf", "needs sets"},
	{"empty W | po", "mixes"},
	{"acyclic W", "needs a relation"},
	{"empty W+", "needs a relation"},
	{"empty [po]", "needs a set"},
	{"empty (* unterminated", "unterminated comment"},
}

// TestParseErrors pins rejection of malformed and ill-typed models.
func TestParseErrors(t *testing.T) {
	for _, c := range badModels {
		_, err := Parse("t", c.src)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q, got nil", c.src, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Parse(%q) error = %v, want substring %q", c.src, err, c.frag)
		}
	}
}

// TestModelMetadata checks flag classification, so detection, and the
// monotonicity analysis used for pruning.
func TestModelMetadata(t *testing.T) {
	sc := MustLoad("sc")
	if sc.UsesSyncOrder() {
		t.Error("sc model should not use so")
	}
	drf0 := MustLoad("drf0")
	if !drf0.UsesSyncOrder() {
		t.Error("drf0 model must use so")
	}
	// sc's acyclicity axiom is monotone in rf/co/fr — prunable.
	if c := &sc.Constraints[0]; !sc.prunable(c) {
		t.Error("sc acyclicity axiom should be prunable")
	}
	// A difference with a dynamic relation on the right is not monotone.
	m, err := Parse("t", "empty po \\ rf")
	if err != nil {
		t.Fatal(err)
	}
	if m.prunable(&m.Constraints[0]) {
		t.Error("po \\ rf must not be prunable (rf at negative polarity)")
	}
	// The same through a let binding.
	m, err = Parse("t", "let x = po \\ (rf ; co)\nempty x")
	if err != nil {
		t.Fatal(err)
	}
	if m.prunable(&m.Constraints[0]) {
		t.Error("let-indirected negative rf must not be prunable")
	}
	// Flag constraints never prune or reject.
	for i := range drf0.Constraints {
		c := &drf0.Constraints[i]
		if c.Flag && drf0.prunable(c) {
			t.Error("flag constraint must not be prunable")
		}
	}
}
