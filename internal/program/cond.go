package program

import (
	"fmt"
	"strings"

	"weakorder/internal/mem"
)

// Cond is a litmus postcondition: a conjunction of final-state terms over
// thread registers and memory locations, in the herd/litmus "exists"
// tradition. A program's Cond names the outcome of interest — usually
// the outcome sequential consistency forbids.
type Cond struct {
	// Terms are conjoined.
	Terms []CondTerm
}

// CondTerm is one conjunct: either a register observation (Thread >= 0)
// or a final memory value (Thread < 0, Addr used).
type CondTerm struct {
	// Thread is the observing thread for register terms; -1 for memory
	// terms.
	Thread int
	// Reg is the register (register terms).
	Reg Reg
	// Addr is the location (memory terms).
	Addr mem.Addr
	// Sym is Addr's name, for rendering.
	Sym string
	// Value is the expected value.
	Value mem.Value
}

// String renders the term like "P0:r1=0" or "x=2".
func (t CondTerm) String() string {
	if t.Thread >= 0 {
		return fmt.Sprintf("P%d:%v=%d", t.Thread, t.Reg, t.Value)
	}
	loc := t.Sym
	if loc == "" {
		loc = fmt.Sprintf("[%d]", t.Addr)
	}
	return fmt.Sprintf("%s=%d", loc, t.Value)
}

// String renders the condition like "exists P0:r0=0 & P1:r0=0".
func (c *Cond) String() string {
	parts := make([]string, len(c.Terms))
	for i, t := range c.Terms {
		parts[i] = t.String()
	}
	return "exists " + strings.Join(parts, " & ")
}

// RegFile is one thread's register values.
type RegFile = [NumRegs]mem.Value

// Eval evaluates the condition against final register files (indexed by
// thread) and final memory.
func (c *Cond) Eval(regs []RegFile, final map[mem.Addr]mem.Value) bool {
	for _, t := range c.Terms {
		if t.Thread >= 0 {
			if t.Thread >= len(regs) || regs[t.Thread][t.Reg] != t.Value {
				return false
			}
		} else if final[t.Addr] != t.Value {
			return false
		}
	}
	return true
}

// Validate checks thread indices against the program.
func (c *Cond) Validate(p *Program) error {
	for _, t := range c.Terms {
		if t.Thread >= p.NumThreads() {
			return fmt.Errorf("condition term %v references thread %d of %d", t, t.Thread, p.NumThreads())
		}
		if t.Thread >= 0 && t.Reg >= NumRegs {
			return fmt.Errorf("condition term %v: register out of range", t)
		}
	}
	return nil
}
