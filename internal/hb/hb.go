// Package hb computes the happens-before relation of Adve & Hill's
// Definition 3 for one execution on the idealized architecture:
//
//	op1 po→ op2  iff op1 precedes op2 in some processor's program order
//	op1 so→ op2  iff op1 and op2 are synchronization operations on the
//	             same location and op1 completes before op2
//	hb = (po ∪ so)+   (irreflexive transitive closure)
//
// The package also implements the paper's augmentation of an execution
// with hypothetical initializing writes, final reads, and the boundary
// synchronization operations that order them (Section 4), plus the
// conflicting-access analysis used by the DRF0 checker and the
// reads-see-last-write condition of Lemma 1.
package hb

import (
	"fmt"
	"sort"

	"weakorder/internal/bitset"
	"weakorder/internal/mem"
)

// SyncMode selects which synchronization operations create so edges.
type SyncMode int

const (
	// SyncAll is DRF0 proper: every pair of synchronization operations on
	// the same location is so-ordered by completion time.
	SyncAll SyncMode = iota
	// SyncWriterOrdered is the Section 6 refinement: a read-only
	// synchronization operation cannot be used to order the issuing
	// processor's previous accesses with respect to other processors'
	// subsequent synchronization. Concretely, an so edge requires that at
	// least the earlier operation have a write component: edges
	// SR→SR and SR→SW/RMW are dropped, SW/RMW→anything remain.
	SyncWriterOrdered
	// SyncPairedRA explores the Section 7 direction that later became
	// release consistency: an so edge exists only from a writing
	// synchronization operation (a release) to a later *reading*
	// synchronization operation (an acquire) on the same location.
	// Compared to SyncWriterOrdered, the release→release edge is also
	// dropped: two Unsets of the same flag order nothing between their
	// issuers. Programs must communicate strictly through
	// release/acquire pairs.
	SyncPairedRA
)

// String names the mode.
func (m SyncMode) String() string {
	switch m {
	case SyncAll:
		return "drf0"
	case SyncWriterOrdered:
		return "drf0+ro"
	case SyncPairedRA:
		return "drf0+ra"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(m))
	}
}

// Graph is the happens-before relation over one execution's operations.
// Operations are identified by their position in the execution's Ops slice.
type Graph struct {
	exec  *mem.Execution
	mode  SyncMode
	succ  [][]int // direct po ∪ so edges
	reach []*bitset.Set
}

// Build computes happens-before for e under the given synchronization
// mode. The execution's Ops must be in completion order (so edges are
// derived from it). Build is O(n²/64 · e) in the worst case via bitset
// propagation; executions of a few thousand operations are fine.
func Build(e *mem.Execution, mode SyncMode) *Graph {
	n := len(e.Ops)
	g := &Graph{exec: e, mode: mode, succ: make([][]int, n)}

	// Program order: within each processor, edge between operations at
	// consecutive Index values (full order recovered by closure).
	byProc := make(map[int][]int) // proc -> op positions, sorted by Index
	for i, op := range e.Ops {
		byProc[op.Proc] = append(byProc[op.Proc], i)
	}
	for _, idxs := range byProc {
		sort.Slice(idxs, func(a, b int) bool {
			return e.Ops[idxs[a]].Index < e.Ops[idxs[b]].Index
		})
		for k := 0; k+1 < len(idxs); k++ {
			g.addEdge(idxs[k], idxs[k+1])
		}
	}

	// Synchronization order: within each location, sync operations in
	// completion order; edges between completion-consecutive pairs in
	// SyncAll mode. In SyncWriterOrdered mode read-only sync operations do
	// not order later operations, so each sync op links back to the most
	// recent *writing* sync op on the location.
	byLoc := make(map[mem.Addr][]int)
	for i, op := range e.Ops {
		if op.IsSync() {
			byLoc[op.Addr] = append(byLoc[op.Addr], i)
		}
	}
	for _, idxs := range byLoc {
		switch mode {
		case SyncAll:
			for k := 0; k+1 < len(idxs); k++ {
				g.addEdge(idxs[k], idxs[k+1])
			}
		case SyncWriterOrdered:
			lastWriter := -1
			for _, i := range idxs {
				if lastWriter >= 0 {
					g.addEdge(lastWriter, i)
				}
				if e.Ops[i].HasWriteComponent() {
					lastWriter = i
				}
			}
		case SyncPairedRA:
			// Every acquire (read-component sync op) is ordered after
			// every earlier release (write-component sync op); releases
			// do not order each other.
			var writers []int
			for _, i := range idxs {
				if e.Ops[i].HasReadComponent() {
					for _, w := range writers {
						g.addEdge(w, i)
					}
				}
				if e.Ops[i].HasWriteComponent() {
					writers = append(writers, i)
				}
			}
		}
	}

	g.close()
	return g
}

func (g *Graph) addEdge(from, to int) {
	if from == to {
		return
	}
	g.succ[from] = append(g.succ[from], to)
}

// close computes the transitive closure. Edges may point backwards in Ops
// order in pathological inputs, so we do a DFS-based propagation robust to
// cycles (cycles are then reported by CheckStrictPartialOrder).
func (g *Graph) close() {
	n := len(g.succ)
	g.reach = make([]*bitset.Set, n)
	// Process in reverse topological order when possible: iterate until
	// fixpoint (usually a single pass because edges mostly go forward in
	// completion order).
	for i := range g.reach {
		g.reach[i] = bitset.New(n)
	}
	for i := n - 1; i >= 0; i-- {
		for _, j := range g.succ[i] {
			g.reach[i].Add(j)
			g.reach[i].UnionWith(g.reach[j])
		}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			for _, j := range g.succ[i] {
				if g.reach[i].UnionWith(g.reach[j]) {
					changed = true
				}
			}
		}
	}
}

// Execution returns the underlying execution.
func (g *Graph) Execution() *mem.Execution { return g.exec }

// Mode returns the synchronization mode the graph was built with.
func (g *Graph) Mode() SyncMode { return g.mode }

// N returns the number of operations.
func (g *Graph) N() int { return len(g.succ) }

// HappensBefore reports whether the operation at position i happens-before
// the one at position j.
func (g *Graph) HappensBefore(i, j int) bool { return g.reach[i].Has(j) }

// Ordered reports whether positions i and j are ordered either way by
// happens-before.
func (g *Graph) Ordered(i, j int) bool {
	return g.reach[i].Has(j) || g.reach[j].Has(i)
}

// CheckStrictPartialOrder verifies hb is irreflexive (equivalently, that
// po ∪ so is acyclic). For executions produced in completion order with
// program-order-consistent completion this always holds.
func (g *Graph) CheckStrictPartialOrder() error {
	for i := range g.reach {
		if g.reach[i].Has(i) {
			return fmt.Errorf("hb: cycle through operation %v", g.exec.Ops[i])
		}
	}
	return nil
}

// Race is a pair of conflicting operations unordered by happens-before —
// a data race under Definition 3.
type Race struct {
	A, B mem.Op
}

// String renders the race.
func (r Race) String() string { return fmt.Sprintf("race: %v || %v", r.A, r.B) }

// racy reports whether the operations at positions i and j form a data
// race: conflicting and hb-unordered. Under the SyncWriterOrdered
// refinement a pair of synchronization operations is exempt — hardware
// serializes same-location synchronization (condition 3 of Section 5.1),
// so such pairs are not data races even when read-only synchronization
// drops the so edge between them.
func (g *Graph) racy(i, j int) bool {
	ops := g.exec.Ops
	if !mem.Conflict(ops[i], ops[j]) {
		return false
	}
	if g.mode != SyncAll && ops[i].IsSync() && ops[j].IsSync() {
		return false
	}
	return !g.Ordered(i, j)
}

// Races returns every conflicting, hb-unordered pair in the execution, in
// deterministic order. A DRF0-obeying execution returns none.
func (g *Graph) Races() []Race {
	var out []Race
	ops := g.exec.Ops
	for i := 0; i < len(ops); i++ {
		for j := i + 1; j < len(ops); j++ {
			if g.racy(i, j) {
				out = append(out, Race{A: ops[i], B: ops[j]})
			}
		}
	}
	return out
}

// CheckReadsSeeLastWrite verifies the Lemma 1 value condition on a
// race-free execution: every operation with a read component returns the
// value of the hb-latest write component ordered before it (for an RMW,
// its own write is excluded). It returns an error describing the first
// violation. On racy executions the "last write" may not be unique; such
// ambiguity is reported as an error too.
func (g *Graph) CheckReadsSeeLastWrite(init map[mem.Addr]mem.Value) error {
	ops := g.exec.Ops
	for r := range ops {
		read := ops[r]
		if !read.HasReadComponent() {
			continue
		}
		// Collect hb-maximal writes ordered before the read.
		var maximal []int
		for w := range ops {
			if w == r || !ops[w].HasWriteComponent() || ops[w].Addr != read.Addr {
				continue
			}
			if !g.HappensBefore(w, r) {
				continue
			}
			dominated := false
			for v := range ops {
				if v == w || v == r || !ops[v].HasWriteComponent() || ops[v].Addr != read.Addr {
					continue
				}
				if g.HappensBefore(w, v) && g.HappensBefore(v, r) {
					dominated = true
					break
				}
			}
			if !dominated {
				maximal = append(maximal, w)
			}
		}
		switch len(maximal) {
		case 0:
			want := init[read.Addr] // zero when uninitialized
			if read.Got != want {
				return fmt.Errorf("hb: %v read %d but no hb-earlier write exists and initial value is %d", read, read.Got, want)
			}
		case 1:
			if w := ops[maximal[0]]; read.Got != w.Data {
				return fmt.Errorf("hb: %v read %d but hb-last write is %v", read, read.Got, w)
			}
		default:
			return fmt.Errorf("hb: %v has %d hb-maximal earlier writes (racy execution?)", read, len(maximal))
		}
	}
	return nil
}
