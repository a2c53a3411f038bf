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
	// component, sorted by (processor, index) with no id repeated.
	// ResultOf and NewResult establish that order; Key and Equal panic
	// on a slice that breaks it.
	Reads []ReadObservation
	// Final is the final memory state restricted to touched addresses.
	Final map[Addr]Value
}

// NewResult returns the result with the given reads, sorted in place by
// (processor, index), and final state. Every result not extracted by
// ResultOf is built here.
func NewResult(reads []ReadObservation, final map[Addr]Value) Result {
	slices.SortFunc(reads, byID)
	return Result{Reads: reads, Final: final}
}

// byID orders observations by (processor, index).
func byID(a, b ReadObservation) int {
	return cmp.Or(cmp.Compare(a.ID.Proc, b.ID.Proc), cmp.Compare(a.ID.Index, b.ID.Index))
}

// ResultOf extracts the Result of an execution. The execution lists its
// operations in completion order, so each processor's reads get a
// bucket of the slice, sized by a counting pass and filled in
// completion order; a bucket is sorted only when its reads completed
// out of index order. The reads are copied out of the trace, which a
// pooled machine reuses, but the result shares e.Final, as NewResult
// shares the map it is given: the machine and the interpreter build
// that map fresh for each execution.
func ResultOf(e *Execution) Result {
	var small [16]int
	next := slices.Grow(small[:0], e.Procs) // per processor: its read count, then its next slot
	for _, op := range e.Ops {
		if observable(op) {
			for op.Proc >= len(next) {
				next = append(next, 0)
			}
			next[op.Proc]++
		}
	}
	n := 0
	for p, c := range next {
		next[p] = n
		n += c
	}
	reads := make([]ReadObservation, n)
	for _, op := range e.Ops {
		if observable(op) {
			reads[next[op.Proc]] = ReadObservation{ID: op.ID(), Addr: op.Addr, Value: op.Got}
			next[op.Proc]++
		}
	}
	for lo := 0; lo < n; {
		hi, inOrder := lo+1, true
		for ; hi < n && reads[hi].ID.Proc == reads[lo].ID.Proc; hi++ {
			inOrder = inOrder && reads[hi-1].ID.Index < reads[hi].ID.Index
		}
		if !inOrder {
			slices.SortFunc(reads[lo:hi], byID)
		}
		lo = hi
	}
	return Result{Reads: reads, Final: e.Final}
}

// observable reports whether op's value is part of a Result: it reads
// and is not an augmentation operation.
func observable(op Op) bool { return op.Proc >= 0 && op.HasReadComponent() }

// Read returns the observation of the read with the given id, and
// whether the result holds one.
func (r Result) Read(id OpID) (ReadObservation, bool) {
	i, ok := slices.BinarySearchFunc(r.Reads, ReadObservation{ID: id}, byID)
	if !ok {
		return ReadObservation{}, false
	}
	return r.Reads[i], true
}

// follows panics unless reads[i] comes strictly after reads[i-1] in
// (processor, index) order: a result out of order or with a repeated id
// has no well-defined key or equality.
func follows(reads []ReadObservation, i int) {
	if i > 0 && byID(reads[i-1], reads[i]) >= 0 {
		panic(fmt.Sprintf("mem: Result.Reads out of (processor, index) order: %v then %v", reads[i-1].ID, reads[i].ID))
	}
}

// Equal reports whether two results are indistinguishable: identical read
// observations and identical final state over the union of touched
// addresses (missing entries default to zero).
func (r Result) Equal(other Result) bool {
	same := len(r.Reads) == len(other.Reads)
	for i := range r.Reads {
		follows(r.Reads, i)
		same = same && r.Reads[i] == other.Reads[i]
	}
	for i := range other.Reads {
		follows(other.Reads, i)
	}
	if !same {
		return false
	}
	for a, v := range r.Final {
		if other.Final[a] != v {
			return false
		}
	}
	for a, v := range other.Final {
		if r.Final[a] != v {
			return false
		}
	}
	return true
}

// Key returns a canonical string fingerprint of the result, usable as a
// map key for grouping outcomes across runs. Zero-valued final entries
// are omitted: Equal already treats an absent address as zero, and
// producers differ in whether they materialize untouched addresses, so
// the fingerprint must not distinguish the two spellings.
func (r Result) Key() string {
	var small [16]Addr
	addrs := small[:0]
	for a, v := range r.Final {
		if v != 0 {
			addrs = append(addrs, a)
		}
	}
	slices.Sort(addrs)
	// Sized for short numbers; append grows it past that.
	b := make([]byte, 0, 16*len(r.Reads)+12*len(addrs)+1)
	for i, rd := range r.Reads {
		follows(r.Reads, i)
		b = append(b, 'P')
		b = strconv.AppendInt(b, int64(rd.ID.Proc), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(rd.ID.Index), 10)
		b = append(b, '[')
		b = strconv.AppendUint(b, uint64(rd.Addr), 10)
		b = append(b, ']', '=')
		b = strconv.AppendInt(b, int64(rd.Value), 10)
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
