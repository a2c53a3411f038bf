// Package mem defines the vocabulary of shared-memory operations used
// throughout the repository: addresses, values, operation kinds, dynamic
// operations, executions, and results.
//
// The definitions follow Adve & Hill, "Weak Ordering - A New Definition"
// (ISCA 1990). In particular:
//
//   - An operation is a data read, a data write, or a synchronization
//     operation. Synchronization operations are hardware recognizable and
//     access exactly one memory location (a DRF0 requirement). They come in
//     read-only (Test), write-only (Unset/Set) and read-write (TestAndSet)
//     flavors; the distinction matters for the Section 6 refinement.
//   - Two operations conflict if they access the same location and are not
//     both reads (Definition 3).
//   - The result of an execution is the union of the values returned by all
//     reads plus the final state of memory (Section 1).
package mem

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Addr is a word-granular memory address. The simulator maps addresses to
// cache lines and memory modules; the formal tools treat them as opaque
// location names.
type Addr uint32

// Value is the contents of one memory word.
type Value int64

// Kind classifies a dynamic memory operation.
type Kind uint8

// Operation kinds. Data operations order only through intra-processor
// dependencies; synchronization operations additionally participate in the
// synchronization order used by happens-before.
const (
	// Read is an ordinary data read.
	Read Kind = iota
	// Write is an ordinary data write.
	Write
	// SyncRead is a read-only synchronization operation (e.g. the Test of
	// Test&TestAndSet).
	SyncRead
	// SyncWrite is a write-only synchronization operation (e.g. Unset).
	SyncWrite
	// SyncRMW is a read-write synchronization operation (e.g. TestAndSet).
	// Its read and write components execute atomically with respect to
	// other synchronization operations on the same location.
	SyncRMW
)

// String returns a short human-readable name: R, W, SR, SW, RMW.
func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	case SyncRead:
		return "SR"
	case SyncWrite:
		return "SW"
	case SyncRMW:
		return "RMW"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsSync reports whether k is a synchronization operation.
func (k Kind) IsSync() bool { return k == SyncRead || k == SyncWrite || k == SyncRMW }

// ReadsMemory reports whether an operation of kind k returns a value from
// memory (has a read component).
func (k Kind) ReadsMemory() bool { return k == Read || k == SyncRead || k == SyncRMW }

// WritesMemory reports whether an operation of kind k deposits a value into
// memory (has a write component).
func (k Kind) WritesMemory() bool { return k == Write || k == SyncWrite || k == SyncRMW }

// InitProc is the pseudo-processor id used for the hypothetical
// initializing writes that the paper adds before an execution, and FinalProc
// for the hypothetical final reads added after it (Section 4). Augmenting
// executions with these operations lets happens-before order every access
// against the initial and final state of memory.
const (
	InitProc  = -1
	FinalProc = -2
)

// Op is one dynamic memory operation in an execution.
type Op struct {
	// Proc is the issuing processor (InitProc/FinalProc for the
	// augmentation operations).
	Proc int
	// Index is the operation's position in its processor's program order,
	// counting only memory operations; together (Proc, Index) identify the
	// operation uniquely within an execution.
	Index int
	// Kind classifies the operation.
	Kind Kind
	// Addr is the single location accessed.
	Addr Addr
	// Data is the value written, for operations with a write component.
	Data Value
	// Got is the value returned, for operations with a read component.
	Got Value
	// Label optionally carries a source-level name for diagnostics.
	Label string
}

// HasReadComponent reports whether the operation returns a value.
func (o Op) HasReadComponent() bool { return o.Kind.ReadsMemory() }

// HasWriteComponent reports whether the operation writes memory.
func (o Op) HasWriteComponent() bool { return o.Kind.WritesMemory() }

// IsSync reports whether the operation is a synchronization operation.
func (o Op) IsSync() bool { return o.Kind.IsSync() }

// ID returns the (processor, index) identity of the operation.
func (o Op) ID() OpID { return OpID{Proc: o.Proc, Index: o.Index} }

// String formats the operation like "P1.3:W[x=4]=7" (processor 1, fourth
// operation, write of 7 to address 4) with the label substituted for the
// raw address when present.
func (o Op) String() string {
	loc := fmt.Sprintf("%d", o.Addr)
	if o.Label != "" {
		loc = o.Label
	}
	var b strings.Builder
	fmt.Fprintf(&b, "P%d.%d:%s[%s]", o.Proc, o.Index, o.Kind, loc)
	switch {
	case o.Kind == Read || o.Kind == SyncRead:
		fmt.Fprintf(&b, "->%d", o.Got)
	case o.Kind == Write || o.Kind == SyncWrite:
		fmt.Fprintf(&b, "=%d", o.Data)
	case o.Kind == SyncRMW:
		fmt.Fprintf(&b, "->%d,=%d", o.Got, o.Data)
	}
	return b.String()
}

// OpID identifies a dynamic operation within an execution.
type OpID struct {
	Proc  int
	Index int
}

// String formats the id like "P1.3".
func (id OpID) String() string { return fmt.Sprintf("P%d.%d", id.Proc, id.Index) }

// Less orders ids by processor then index.
func (id OpID) Less(other OpID) bool {
	if id.Proc != other.Proc {
		return id.Proc < other.Proc
	}
	return id.Index < other.Index
}

// Conflict reports whether a and b access the same location and are not
// both reads (Definition 3). Operations with a write component conflict
// with every same-location operation; two pure reads never conflict.
func Conflict(a, b Op) bool {
	if a.Addr != b.Addr {
		return false
	}
	return a.HasWriteComponent() || b.HasWriteComponent()
}

// Execution is a completed run of a program: the dynamic memory operations
// in a global completion order, plus the final memory state. For executions
// on the idealized architecture the order of Ops is the atomic interleaving
// itself; for simulator executions it is the commit order.
type Execution struct {
	// Ops lists every dynamic memory operation in completion order.
	Ops []Op
	// Final maps each touched address to its final value.
	Final map[Addr]Value
	// Procs is the number of real processors that participated.
	Procs int
}

// Clone returns a deep copy of the execution.
func (e *Execution) Clone() *Execution {
	out := &Execution{
		Ops:   make([]Op, len(e.Ops)),
		Final: make(map[Addr]Value, len(e.Final)),
		Procs: e.Procs,
	}
	copy(out.Ops, e.Ops)
	for a, v := range e.Final {
		out.Final[a] = v
	}
	return out
}

// ByProc groups the execution's operations by issuing processor, each group
// in program (index) order. Augmentation pseudo-processors are included
// under their negative ids.
func (e *Execution) ByProc() map[int][]Op {
	out := make(map[int][]Op)
	for _, op := range e.Ops {
		out[op.Proc] = append(out[op.Proc], op)
	}
	for p := range out {
		ops := out[p]
		sort.Slice(ops, func(i, j int) bool { return ops[i].Index < ops[j].Index })
	}
	return out
}

// String renders the execution one operation per line in completion order.
func (e *Execution) String() string {
	var b strings.Builder
	for i, op := range e.Ops {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(op.String())
	}
	return b.String()
}

// ReadObservation records the value returned by one dynamic read (or the
// read component of a synchronization operation).
type ReadObservation struct {
	ID    OpID
	Addr  Addr
	Value Value
}

// Result is the observable outcome of an execution per the paper's
// interpretation of Lamport's definition: the union of the values returned
// by all read operations plus the final state of memory.
type Result struct {
	// Reads holds one observation per dynamic operation with a read
	// component, keyed by (processor, index).
	Reads map[OpID]ReadObservation
	// Final is the final memory state restricted to touched addresses.
	Final map[Addr]Value
}

// ResultOf extracts the Result of an execution. It counts the
// observable reads first, so both maps are made at their final size.
func ResultOf(e *Execution) Result {
	reads := 0
	for _, op := range e.Ops {
		if observable(op) {
			reads++
		}
	}
	r := Result{
		Reads: make(map[OpID]ReadObservation, reads),
		Final: make(map[Addr]Value, len(e.Final)),
	}
	for _, op := range e.Ops {
		if observable(op) {
			r.Reads[op.ID()] = ReadObservation{ID: op.ID(), Addr: op.Addr, Value: op.Got}
		}
	}
	for a, v := range e.Final {
		r.Final[a] = v
	}
	return r
}

// observable reports whether op's value is part of a Result: it reads
// and is not an augmentation operation.
func observable(op Op) bool { return op.Proc >= 0 && op.HasReadComponent() }

// Equal reports whether two results are indistinguishable: identical read
// observations and identical final state over the union of touched
// addresses (missing entries default to zero).
func (r Result) Equal(other Result) bool {
	if len(r.Reads) != len(other.Reads) {
		return false
	}
	for id, obs := range r.Reads {
		o, ok := other.Reads[id]
		if !ok || o.Addr != obs.Addr || o.Value != obs.Value {
			return false
		}
	}
	for a, v := range r.Final {
		if other.finalAt(a) != v {
			return false
		}
	}
	for a, v := range other.Final {
		if r.finalAt(a) != v {
			return false
		}
	}
	return true
}

func (r Result) finalAt(a Addr) Value {
	return r.Final[a] // zero when absent
}

// Key returns a canonical string fingerprint of the result, usable as a
// map key for grouping outcomes across runs. Zero-valued final entries
// are omitted: Equal already treats an absent address as zero, and
// producers differ in whether they materialize untouched addresses, so
// the fingerprint must not distinguish the two spellings.
func (r Result) Key() string {
	type read struct {
		id   OpID
		addr Addr
		val  Value
	}
	reads := make([]read, 0, len(r.Reads))
	for id, obs := range r.Reads {
		reads = append(reads, read{id, obs.Addr, obs.Value})
	}
	slices.SortFunc(reads, func(a, b read) int {
		return cmp.Or(cmp.Compare(a.id.Proc, b.id.Proc), cmp.Compare(a.id.Index, b.id.Index))
	})
	addrs := make([]Addr, 0, len(r.Final))
	for a, v := range r.Final {
		if v != 0 {
			addrs = append(addrs, a)
		}
	}
	slices.Sort(addrs)
	// Sized for short numbers; append grows it past that.
	b := make([]byte, 0, 16*len(reads)+12*len(addrs)+1)
	for _, rd := range reads {
		b = append(b, 'P')
		b = strconv.AppendInt(b, int64(rd.id.Proc), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(rd.id.Index), 10)
		b = append(b, '[')
		b = strconv.AppendUint(b, uint64(rd.addr), 10)
		b = append(b, ']', '=')
		b = strconv.AppendInt(b, int64(rd.val), 10)
		b = append(b, ';')
	}
	b = append(b, '|')
	for _, a := range addrs {
		b = strconv.AppendUint(b, uint64(a), 10)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(r.Final[a]), 10)
		b = append(b, ';')
	}
	return string(b)
}

// String renders the result compactly.
func (r Result) String() string { return r.Key() }
