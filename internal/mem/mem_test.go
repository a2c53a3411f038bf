package mem

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestKindPredicates(t *testing.T) {
	cases := []struct {
		kind   Kind
		sync   bool
		reads  bool
		writes bool
		str    string
	}{
		{Read, false, true, false, "R"},
		{Write, false, false, true, "W"},
		{SyncRead, true, true, false, "SR"},
		{SyncWrite, true, false, true, "SW"},
		{SyncRMW, true, true, true, "RMW"},
	}
	for _, c := range cases {
		if got := c.kind.IsSync(); got != c.sync {
			t.Errorf("%v.IsSync() = %v, want %v", c.kind, got, c.sync)
		}
		if got := c.kind.ReadsMemory(); got != c.reads {
			t.Errorf("%v.ReadsMemory() = %v, want %v", c.kind, got, c.reads)
		}
		if got := c.kind.WritesMemory(); got != c.writes {
			t.Errorf("%v.WritesMemory() = %v, want %v", c.kind, got, c.writes)
		}
		if got := c.kind.String(); got != c.str {
			t.Errorf("%v.String() = %q, want %q", c.kind, got, c.str)
		}
	}
}

func TestConflict(t *testing.T) {
	r0 := Op{Proc: 0, Kind: Read, Addr: 1}
	r1 := Op{Proc: 1, Kind: Read, Addr: 1}
	w1 := Op{Proc: 1, Kind: Write, Addr: 1}
	w2 := Op{Proc: 1, Kind: Write, Addr: 2}
	sr := Op{Proc: 2, Kind: SyncRead, Addr: 1}
	rmw := Op{Proc: 2, Kind: SyncRMW, Addr: 1}

	if Conflict(r0, r1) {
		t.Error("two reads of the same location must not conflict")
	}
	if !Conflict(r0, w1) || !Conflict(w1, r0) {
		t.Error("read/write of the same location must conflict (both directions)")
	}
	if Conflict(w1, w2) {
		t.Error("accesses to different locations must not conflict")
	}
	if Conflict(r0, sr) {
		t.Error("data read and sync read must not conflict")
	}
	if !Conflict(r0, rmw) {
		t.Error("data read and RMW must conflict (RMW has a write component)")
	}
	if !Conflict(sr, rmw) {
		t.Error("sync read and RMW must conflict")
	}
}

func TestConflictSymmetric(t *testing.T) {
	f := func(k1, k2 uint8, a1, a2 uint8) bool {
		o1 := Op{Kind: Kind(k1 % 5), Addr: Addr(a1 % 4)}
		o2 := Op{Kind: Kind(k2 % 5), Addr: Addr(a2 % 4)}
		return Conflict(o1, o2) == Conflict(o2, o1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Op{Proc: 1, Index: 3, Kind: Write, Addr: 4, Data: 7}, "P1.3:W[4]=7"},
		{Op{Proc: 0, Index: 0, Kind: Read, Addr: 2, Got: 5, Label: "x"}, "P0.0:R[x]->5"},
		{Op{Proc: 2, Index: 1, Kind: SyncRMW, Addr: 9, Got: 0, Data: 1}, "P2.1:RMW[9]->0,=1"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("op.String() = %q, want %q", got, c.want)
		}
	}
}

func TestOpIDLess(t *testing.T) {
	a := OpID{Proc: 0, Index: 5}
	b := OpID{Proc: 1, Index: 0}
	c := OpID{Proc: 1, Index: 2}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Error("OpID.Less must order by proc then index")
	}
	if a.Less(a) {
		t.Error("OpID.Less must be irreflexive")
	}
}

func TestExecutionByProc(t *testing.T) {
	e := &Execution{
		Procs: 2,
		Ops: []Op{
			{Proc: 1, Index: 0, Kind: Write, Addr: 0},
			{Proc: 0, Index: 1, Kind: Read, Addr: 0},
			{Proc: 0, Index: 0, Kind: Write, Addr: 1},
		},
	}
	byp := e.ByProc()
	if len(byp[0]) != 2 || len(byp[1]) != 1 {
		t.Fatalf("ByProc grouped %d/%d ops, want 2/1", len(byp[0]), len(byp[1]))
	}
	if byp[0][0].Index != 0 || byp[0][1].Index != 1 {
		t.Error("ByProc must sort each processor's ops by Index")
	}
}

func TestExecutionClone(t *testing.T) {
	e := &Execution{
		Procs: 1,
		Ops:   []Op{{Proc: 0, Kind: Write, Addr: 1, Data: 2}},
		Final: map[Addr]Value{1: 2},
	}
	c := e.Clone()
	c.Ops[0].Data = 99
	c.Final[1] = 99
	if e.Ops[0].Data != 2 || e.Final[1] != 2 {
		t.Error("Clone must deep-copy ops and final state")
	}
}

func TestResultEqualAndKey(t *testing.T) {
	e := &Execution{
		Procs: 2,
		Ops: []Op{
			{Proc: 0, Index: 0, Kind: Write, Addr: 0, Data: 1},
			{Proc: 1, Index: 0, Kind: Read, Addr: 0, Got: 1},
		},
		Final: map[Addr]Value{0: 1},
	}
	r1 := ResultOf(e)
	r2 := ResultOf(e.Clone())
	if !r1.Equal(r2) {
		t.Error("identical executions must have equal results")
	}
	if r1.Key() != r2.Key() {
		t.Error("identical results must have identical keys")
	}

	e2 := e.Clone()
	e2.Ops[1].Got = 0
	r3 := ResultOf(e2)
	if r1.Equal(r3) {
		t.Error("results differing in a read value must not be equal")
	}
	if r1.Key() == r3.Key() {
		t.Error("results differing in a read value must have different keys")
	}
}

// TestResultKeyFormat pins Key's exact spelling: reads as
// "P{proc}.{index}[{addr}]={value};" in numeric (proc, index) order, a
// "|", then nonzero finals as "{addr}={value};" in numeric address
// order. Keys index the campaign's verdict memo, its per-simulation
// records and the corpus, so the bytes must not drift.
func TestResultKeyFormat(t *testing.T) {
	reads := func(obs ...ReadObservation) []ReadObservation {
		return NewResult(obs, nil).Reads
	}
	at := func(proc, index int, a Addr, v Value) ReadObservation {
		return ReadObservation{ID: OpID{Proc: proc, Index: index}, Addr: a, Value: v}
	}
	cases := []struct {
		name string
		r    Result
		want string
	}{
		{"empty", Result{}, "|"},
		{"empty maps", Result{Reads: []ReadObservation{}, Final: map[Addr]Value{}}, "|"},
		{"negative values", Result{
			Reads: reads(at(0, 0, 3, -7), at(1, 2, 4, -9223372036854775808)),
			Final: map[Addr]Value{3: -1, 4: 9223372036854775807},
		}, "P0.0[3]=-7;P1.2[4]=-9223372036854775808;|3=-1;4=9223372036854775807;"},
		{"max address", Result{
			Reads: reads(at(0, 0, 4294967295, 5)),
			Final: map[Addr]Value{4294967295: 6},
		}, "P0.0[4294967295]=5;|4294967295=6;"},
		{"zero finals omitted", Result{
			Reads: reads(at(0, 0, 1, 0)),
			Final: map[Addr]Value{0: 0, 1: 0, 2: 3},
		}, "P0.0[1]=0;|2=3;"},
		{"numeric order", Result{
			Reads: reads(at(10, 0, 1, 1), at(9, 0, 1, 2), at(2, 10, 1, 3), at(2, 9, 1, 4)),
			Final: map[Addr]Value{10: 1, 9: 2, 100: 3},
		}, "P2.9[1]=4;P2.10[1]=3;P9.0[1]=2;P10.0[1]=1;|9=2;10=1;100=3;"},
	}
	for _, tc := range cases {
		if got := tc.r.Key(); got != tc.want {
			t.Errorf("%s: Key() = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestResultEqualZeroDefault(t *testing.T) {
	a := Result{Final: map[Addr]Value{1: 0}}
	b := Result{Final: map[Addr]Value{}}
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("an explicit zero final value must equal an absent entry")
	}
	if a.Key() != b.Key() {
		t.Error("explicit-zero and absent final entries must share a key")
	}
	c := Result{Final: map[Addr]Value{1: 5}}
	if a.Equal(c) {
		t.Error("differing final values must not be equal")
	}
	if a.Key() == c.Key() {
		t.Error("differing final values must have different keys")
	}
}

func TestResultOfSkipsBoundaryOps(t *testing.T) {
	e := &Execution{
		Procs: 1,
		Ops: []Op{
			{Proc: InitProc, Index: 0, Kind: Write, Addr: 0, Data: 9},
			{Proc: 0, Index: 0, Kind: Read, Addr: 0, Got: 9},
			{Proc: FinalProc, Index: 0, Kind: Read, Addr: 0, Got: 9},
		},
	}
	r := ResultOf(e)
	if len(r.Reads) != 1 {
		t.Fatalf("ResultOf recorded %d reads, want 1 (boundary ops excluded)", len(r.Reads))
	}
	if _, ok := r.Read(OpID{Proc: 0, Index: 0}); !ok {
		t.Error("ResultOf must record the real processor's read")
	}
}

// TestResultReadOrder builds a commit-order trace in which processors
// interleave, processor 1's reads commit out of index order, and the
// augmentation operations sit among them. ResultOf must list the reads
// in (processor, index) order, Read must find each one and miss every
// id that is not a read, and a hand-built result out of order must make
// Key and Equal panic rather than answer.
func TestResultReadOrder(t *testing.T) {
	e := &Execution{
		Procs: 3,
		Ops: []Op{
			{Proc: InitProc, Index: 0, Kind: Write, Addr: 0},
			{Proc: 1, Index: 2, Kind: Read, Addr: 1, Got: 12},
			{Proc: 0, Index: 0, Kind: Read, Addr: 0, Got: 1},
			{Proc: 2, Index: 0, Kind: SyncRMW, Addr: 2, Got: 20, Data: 1},
			{Proc: 1, Index: 0, Kind: Read, Addr: 0, Got: 10},
			{Proc: 0, Index: 1, Kind: Write, Addr: 1, Data: 5},
			{Proc: 1, Index: 3, Kind: SyncRead, Addr: 2, Got: 13},
			{Proc: 0, Index: 2, Kind: Read, Addr: 2, Got: 2},
			{Proc: 1, Index: 1, Kind: Read, Addr: 1, Got: 11},
			{Proc: FinalProc, Index: 0, Kind: Read, Addr: 0, Got: 1},
		},
		Final: map[Addr]Value{0: 1, 1: 5, 2: 1},
	}
	at := func(proc, index int, a Addr, v Value) ReadObservation {
		return ReadObservation{ID: OpID{Proc: proc, Index: index}, Addr: a, Value: v}
	}
	want := []ReadObservation{
		at(0, 0, 0, 1), at(0, 2, 2, 2),
		at(1, 0, 0, 10), at(1, 1, 1, 11), at(1, 2, 1, 12), at(1, 3, 2, 13),
		at(2, 0, 2, 20),
	}
	r := ResultOf(e)
	if !slices.Equal(r.Reads, want) {
		t.Fatalf("ResultOf reads = %v, want %v", r.Reads, want)
	}
	for _, obs := range want {
		if got, ok := r.Read(obs.ID); !ok || got != obs {
			t.Errorf("Read(%v) = %v, %v; want %v, true", obs.ID, got, ok, obs)
		}
	}
	for _, id := range []OpID{{0, 1}, {1, 4}, {3, 0}, {-1, 0}, {-2, 0}} {
		if got, ok := r.Read(id); ok {
			t.Errorf("Read(%v) = %v, want a miss", id, got)
		}
	}
	rev := slices.Clone(want)
	slices.Reverse(rev)
	if hand := NewResult(rev, r.Final); !hand.Equal(r) || hand.Key() != r.Key() {
		t.Error("NewResult must sort its reads into ResultOf's order")
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	swapped := Result{Reads: slices.Clone(want), Final: r.Final}
	swapped.Reads[2], swapped.Reads[3] = swapped.Reads[3], swapped.Reads[2]
	dup := Result{Reads: slices.Clone(want), Final: r.Final}
	dup.Reads[3].ID = dup.Reads[2].ID
	for _, bad := range []struct {
		name string
		r    Result
	}{{"swapped", swapped}, {"duplicate", dup}} {
		mustPanic(bad.name+" Key", func() { bad.r.Key() })
		mustPanic(bad.name+" Equal", func() { bad.r.Equal(r) })
		mustPanic(bad.name+" Equal (other side)", func() { r.Equal(bad.r) })
	}
}
