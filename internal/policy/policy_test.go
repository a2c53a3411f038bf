package policy

import "testing"

func TestStringAndParseRoundTrip(t *testing.T) {
	for _, k := range All() {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Errorf("Parse(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Error("Parse must reject unknown names")
	}
}

func TestPolicyPredicates(t *testing.T) {
	cases := []struct {
		k                                            Kind
		buffer, reserve, ro, drain, waitG, perAccess bool
	}{
		{SC, false, false, false, false, false, true},
		{Unconstrained, true, false, false, false, false, false},
		{WODef1, true, false, false, true, true, false},
		{WODef2, true, true, false, false, false, false},
		{WODef2RO, true, true, true, false, false, false},
	}
	for _, c := range cases {
		if c.k.UsesWriteBuffer() != c.buffer {
			t.Errorf("%v.UsesWriteBuffer() = %v", c.k, !c.buffer)
		}
		if c.k.UsesReserve() != c.reserve {
			t.Errorf("%v.UsesReserve() = %v", c.k, !c.reserve)
		}
		if c.k.ROSyncBypass() != c.ro {
			t.Errorf("%v.ROSyncBypass() = %v", c.k, !c.ro)
		}
		if c.k.DrainBeforeSync() != c.drain {
			t.Errorf("%v.DrainBeforeSync() = %v", c.k, !c.drain)
		}
		if c.k.WaitSyncGlobal() != c.waitG {
			t.Errorf("%v.WaitSyncGlobal() = %v", c.k, !c.waitG)
		}
		if c.k.PerAccessGlobal() != c.perAccess {
			t.Errorf("%v.PerAccessGlobal() = %v", c.k, !c.perAccess)
		}
	}
}
