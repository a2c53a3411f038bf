package faults

import (
	"fmt"
	"testing"
)

// FuzzParse feeds hostile text to the plan parser, which reads the
// -faults flag of wofuzz and wosim. Parse must never panic; a plan it
// accepts must pass Validate, keep every probability in [0,1] and bound
// any delay; and the plan's canonical spec must parse back to the same
// plan. The seeds are the presets and the specs of the Parse tests.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{"none", "mild", "severe", " Mild ", ""} {
		f.Add(spec)
	}
	for _, tc := range customSpecs {
		f.Add(tc.spec)
	}
	for _, tc := range badSpecs {
		f.Add(tc.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) = %#v fails Validate: %v", spec, p, err)
		}
		for _, v := range []float64{p.Drop, p.Dup, p.Delay} {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("Parse(%q) = %#v: probability %v outside [0,1]", spec, p, v)
			}
		}
		if p.Delay > 0 && p.MaxExtraDelay == 0 {
			t.Fatalf("Parse(%q) = %#v: delay without a bound", spec, p)
		}
		text := canonicalSpec(p)
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("canonical spec %q of Parse(%q) does not parse: %v", text, spec, err)
		}
		if q != p {
			t.Fatalf("canonical spec %q of Parse(%q) = %#v parses to %#v", text, spec, p, q)
		}
	})
}

// canonicalSpec renders a plan in Parse's key=value grammar. maxdelay
// is left out when zero, which Parse refuses to read.
func canonicalSpec(p Plan) string {
	s := fmt.Sprintf("drop=%g,dup=%g,delay=%g", p.Drop, p.Dup, p.Delay)
	if p.MaxExtraDelay > 0 {
		s += fmt.Sprintf(",maxdelay=%d", p.MaxExtraDelay)
	}
	if p.DisableRetry {
		s += ",noretry"
	}
	return s
}
