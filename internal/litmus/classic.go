package litmus

import (
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// The classic two-to-four-thread litmus tests of the memory-model
// literature, named as in the herd/litmus tradition. Each comes with a
// Forbidden predicate identifying the outcome sequential consistency
// rules out; the enumerator (package ideal) independently confirms each
// predicate by never producing it.

// SB is store buffering — an alias of Dekker with the literature's name.
//
//	P0: x=1; r0=y     P1: y=1; r0=x        forbidden: r0==0 && r1==0
func SB() *program.Program {
	p := Dekker()
	p.Name = "SB"
	return p
}

// MP2 is the two-thread message-passing shape with plain data accesses.
//
//	P0: x=1; y=1      P1: r0=y; r1=x       forbidden: r0==1 && r1==0
func MP2() *program.Program {
	b := program.NewBuilder("MP")
	x, y := b.Var("x"), b.Var("y")
	p0 := b.Thread()
	p0.StoreImm(x, 1)
	p0.StoreImm(y, 1)
	p1 := b.Thread()
	p1.Load(program.R0, y)
	p1.Load(program.R1, x)
	return b.MustBuild()
}

// MP2Forbidden reports the stale-data outcome.
func MP2Forbidden(r mem.Result) bool {
	return got(r, 1, 0) == 1 &&
		got(r, 1, 1) == 0
}

// S is the S shape:
//
//	P0: x=2; y=1      P1: r0=y; x=1        forbidden: r0==1 && x final 2
func S() *program.Program {
	b := program.NewBuilder("S")
	x, y := b.Var("x"), b.Var("y")
	p0 := b.Thread()
	p0.StoreImm(x, 2)
	p0.StoreImm(y, 1)
	p1 := b.Thread()
	p1.Load(program.R0, y)
	p1.StoreImm(x, 1)
	return b.MustBuild()
}

// SForbidden reports the forbidden S outcome.
func SForbidden(r mem.Result) bool {
	return got(r, 1, 0) == 1 && r.Final[0] == 2
}

// R is the R shape:
//
//	P0: x=1; y=1      P1: y=2; r0=x        forbidden: y final 2 && r0==0
func R() *program.Program {
	b := program.NewBuilder("R")
	x, y := b.Var("x"), b.Var("y")
	p0 := b.Thread()
	p0.StoreImm(x, 1)
	p0.StoreImm(y, 1)
	p1 := b.Thread()
	p1.StoreImm(y, 2)
	p1.Load(program.R0, x)
	return b.MustBuild()
}

// RForbidden reports the forbidden R outcome.
func RForbidden(r mem.Result) bool {
	return r.Final[1] == 2 && got(r, 1, 1) == 0
}

// TwoPlusTwoW is 2+2W:
//
//	P0: x=2; y=1      P1: y=2; x=1         forbidden: x final 2 && y final 2
func TwoPlusTwoW() *program.Program {
	b := program.NewBuilder("2+2W")
	x, y := b.Var("x"), b.Var("y")
	p0 := b.Thread()
	p0.StoreImm(x, 2)
	p0.StoreImm(y, 1)
	p1 := b.Thread()
	p1.StoreImm(y, 2)
	p1.StoreImm(x, 1)
	return b.MustBuild()
}

// TwoPlusTwoWForbidden reports the forbidden 2+2W outcome.
func TwoPlusTwoWForbidden(r mem.Result) bool {
	return r.Final[0] == 2 && r.Final[1] == 2
}

// WRC is write-to-read causality:
//
//	P0: x=1
//	P1: r0=x; y=1
//	P2: r1=y; r2=x
//	forbidden: r0==1 && r1==1 && r2==0
func WRC() *program.Program {
	b := program.NewBuilder("WRC")
	x, y := b.Var("x"), b.Var("y")
	b.Thread().StoreImm(x, 1)
	p1 := b.Thread()
	p1.Load(program.R0, x)
	p1.StoreImm(y, 1)
	p2 := b.Thread()
	p2.Load(program.R1, y)
	p2.Load(program.R2, x)
	return b.MustBuild()
}

// WRCForbidden reports the broken-causality outcome.
func WRCForbidden(r mem.Result) bool {
	return got(r, 1, 0) == 1 &&
		got(r, 2, 0) == 1 &&
		got(r, 2, 1) == 0
}

// RWC is read-to-write causality:
//
//	P0: x=1
//	P1: r0=x; r1=y
//	P2: y=1; r2=x
//	forbidden: r0==1 && r1==0 && r2==0
func RWC() *program.Program {
	b := program.NewBuilder("RWC")
	x, y := b.Var("x"), b.Var("y")
	b.Thread().StoreImm(x, 1)
	p1 := b.Thread()
	p1.Load(program.R0, x)
	p1.Load(program.R1, y)
	p2 := b.Thread()
	p2.StoreImm(y, 1)
	p2.Load(program.R2, x)
	return b.MustBuild()
}

// RWCForbidden reports the forbidden RWC outcome.
func RWCForbidden(r mem.Result) bool {
	return got(r, 1, 0) == 1 &&
		got(r, 1, 1) == 0 &&
		got(r, 2, 1) == 0
}

// CoRR is the coherence read-read test: two reads of one location by one
// processor must not observe a newer then an older write.
//
//	P0: x=1
//	P1: r0=x; r1=x
//	forbidden: r0==1 && r1==0
func CoRR() *program.Program {
	b := program.NewBuilder("CoRR")
	x := b.Var("x")
	b.Thread().StoreImm(x, 1)
	p1 := b.Thread()
	p1.Load(program.R0, x)
	p1.Load(program.R1, x)
	return b.MustBuild()
}

// CoRRForbidden reports the coherence violation.
func CoRRForbidden(r mem.Result) bool {
	return got(r, 1, 0) == 1 &&
		got(r, 1, 1) == 0
}

// CoWW is the coherence write-write test: a processor's two writes to one
// location must serialize in program order.
//
//	P0: x=1; x=2
//	forbidden: x final 1
func CoWW() *program.Program {
	b := program.NewBuilder("CoWW")
	x := b.Var("x")
	p0 := b.Thread()
	p0.StoreImm(x, 1)
	p0.StoreImm(x, 2)
	return b.MustBuild()
}

// CoWWForbidden reports the coherence violation.
func CoWWForbidden(r mem.Result) bool { return r.Final[0] == 1 }

// SBFenced is store buffering with an RP3-style fence between each
// processor's write and read: the fence drains the write's global
// performance, so the forbidden outcome becomes impossible on every
// machine — the fence option the paper attributes to the RP3.
func SBFenced() *program.Program {
	b := program.NewBuilder("SB+fence")
	x, y := b.Var("x"), b.Var("y")
	p0 := b.Thread()
	p0.StoreImm(x, 1)
	p0.Fence()
	p0.Load(program.R0, y)
	p1 := b.Thread()
	p1.StoreImm(y, 1)
	p1.Fence()
	p1.Load(program.R0, x)
	return b.MustBuild()
}

// Test names one classic litmus test with its forbidden-outcome
// predicate. Forbidden outcomes are forbidden under sequential
// consistency AND under cache coherence for the Co* family — the weak
// machines may exhibit the non-Co* ones on racy code.
type Test struct {
	Name string
	Prog *program.Program
	// Forbidden identifies the SC-forbidden outcome.
	Forbidden func(mem.Result) bool
	// CoherenceOnly marks tests whose forbidden outcome violates per-
	// location coherence, which every machine here guarantees (conditions
	// 1 and 2 of Section 5.1) — weak or not.
	CoherenceOnly bool
}

// Classic returns the classic suite.
func Classic() []Test {
	return []Test{
		{Name: "SB", Prog: SB(), Forbidden: DekkerForbidden},
		{Name: "MP", Prog: MP2(), Forbidden: MP2Forbidden},
		{Name: "S", Prog: S(), Forbidden: SForbidden},
		{Name: "R", Prog: R(), Forbidden: RForbidden},
		{Name: "2+2W", Prog: TwoPlusTwoW(), Forbidden: TwoPlusTwoWForbidden},
		{Name: "WRC", Prog: WRC(), Forbidden: WRCForbidden},
		{Name: "RWC", Prog: RWC(), Forbidden: RWCForbidden},
		{Name: "IRIW", Prog: IRIW(), Forbidden: IRIWForbidden},
		{Name: "CoRR", Prog: CoRR(), Forbidden: CoRRForbidden, CoherenceOnly: true},
		{Name: "CoWW", Prog: CoWW(), Forbidden: CoWWForbidden, CoherenceOnly: true},
	}
}
