// Package trace analyzes machine executions (commit-ordered operation
// traces): it verifies the per-location ordering invariants the paper's
// Section 5.1 conditions promise — write serialization (condition 2) and
// synchronization atomicity (condition 3).
//
// The checkers run on *any* execution, so tests apply them to every
// simulator run: a protocol bug that breaks coherence fails these checks
// even when the end-to-end result happens to look plausible.
package trace

import (
	"fmt"

	"weakorder/internal/mem"
)

// WriteOrder returns, per location, the writes (operations with a write
// component) in commit order — the total order per location that
// condition 2 of Section 5.1 requires all processors to observe.
func WriteOrder(e *mem.Execution) map[mem.Addr][]mem.Op {
	out := make(map[mem.Addr][]mem.Op)
	for _, op := range e.Ops {
		if op.HasWriteComponent() {
			out[op.Addr] = append(out[op.Addr], op)
		}
	}
	return out
}

// CheckCoherence verifies per-location write serialization against the
// values reads observed: for each processor and location, the reads (in
// commit order) must observe values at non-decreasing positions of the
// location's write order, starting from the initial value. init supplies
// initial memory contents (absent entries are zero).
//
// The check is the executable form of condition 2: "all writes to the
// same location can be totally ordered based on their commit times, and
// this is the order in which they are observed by all processors".
func CheckCoherence(e *mem.Execution, init map[mem.Addr]mem.Value) error {
	writes := WriteOrder(e)
	// pointer[proc][addr] = index into writes[addr] of the last write the
	// processor observed; -1 = still at the initial value.
	type key struct {
		proc int
		addr mem.Addr
	}
	pointer := make(map[key]int)

	valueAt := func(addr mem.Addr, pos int) mem.Value {
		if pos < 0 {
			return init[addr]
		}
		return writes[addr][pos].Data
	}

	for _, op := range e.Ops {
		if !op.HasReadComponent() || op.Proc < 0 {
			continue
		}
		k := key{proc: op.Proc, addr: op.Addr}
		cur, ok := pointer[k]
		if !ok {
			cur = -1
		}
		// The read may re-observe the current position or any later one.
		found := false
		if valueAt(op.Addr, cur) == op.Got {
			found = true
		} else {
			for pos := cur + 1; pos < len(writes[op.Addr]); pos++ {
				if writes[op.Addr][pos].Data == op.Got {
					pointer[k] = pos
					found = true
					break
				}
			}
		}
		if !found {
			return fmt.Errorf("trace: coherence violation: %v observed %d, but no write at or after position %d of the serialization %v supplies it",
				op, op.Got, cur, summarizeWrites(writes[op.Addr]))
		}
		// An RMW observes and immediately succeeds its predecessor: its
		// own write is the next position.
		if op.Kind == mem.SyncRMW {
			if pos, err := findOwnWrite(writes[op.Addr], op); err == nil {
				pointer[k] = pos
			}
		}
	}
	return nil
}

// CheckRMWAtomicity verifies condition 3's atomicity consequence: each
// read-modify-write's read component returns exactly the value of the
// immediately preceding write in the location's serialization (or the
// initial value when it is the first write).
func CheckRMWAtomicity(e *mem.Execution, init map[mem.Addr]mem.Value) error {
	writes := WriteOrder(e)
	for addr, ws := range writes {
		for i, w := range ws {
			if w.Kind != mem.SyncRMW {
				continue
			}
			want := init[addr]
			if i > 0 {
				want = ws[i-1].Data
			}
			if w.Got != want {
				return fmt.Errorf("trace: RMW atomicity violation: %v read %d but the preceding write in the serialization supplies %d",
					w, w.Got, want)
			}
		}
	}
	return nil
}

func findOwnWrite(ws []mem.Op, op mem.Op) (int, error) {
	for i, w := range ws {
		if w.ID() == op.ID() {
			return i, nil
		}
	}
	return 0, fmt.Errorf("trace: op %v not in write order", op)
}

// CheckIndices verifies the trace is well formed: every operation's
// per-processor index is non-negative and no (processor, index) pair
// commits twice. Commit order is not checked against program order: a
// read forwarded from the write buffer commits before the older write.
func CheckIndices(e *mem.Execution) error {
	seen := make(map[mem.OpID]bool)
	for _, op := range e.Ops {
		if op.Proc < 0 {
			continue
		}
		if op.Index < 0 {
			return fmt.Errorf("trace: negative index on %v", op)
		}
		id := op.ID()
		if seen[id] {
			return fmt.Errorf("trace: duplicate dynamic operation %v", id)
		}
		seen[id] = true
	}
	return nil
}

// CheckAll runs every invariant checker.
func CheckAll(e *mem.Execution, init map[mem.Addr]mem.Value) error {
	if err := CheckIndices(e); err != nil {
		return err
	}
	if err := CheckCoherence(e, init); err != nil {
		return err
	}
	return CheckRMWAtomicity(e, init)
}

func summarizeWrites(ws []mem.Op) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = fmt.Sprintf("%s=%d", w.ID(), w.Data)
	}
	return out
}
