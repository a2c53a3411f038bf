package axiom

import (
	"fmt"

	"weakorder/internal/bitset"
)

// Rel is a binary relation over a fixed universe of n events, stored as a
// bitset adjacency matrix: row i holds the successors of event i. All of
// the relational algebra the cat evaluator needs — union, intersection,
// difference, composition, inverse, closures, cross products of sets,
// identity restriction — reduces to word-parallel row operations, which
// keeps constraint checking cheap even when it runs at every node of the
// candidate-enumeration tree.
type Rel struct {
	n    int
	rows []*bitset.Set
}

// NewRel returns the empty relation over n events.
func NewRel(n int) *Rel {
	r := &Rel{n: n, rows: make([]*bitset.Set, n)}
	for i := range r.rows {
		r.rows[i] = bitset.New(n)
	}
	return r
}

// N returns the universe size.
func (r *Rel) N() int { return r.n }

// Add inserts the pair (i, j).
func (r *Rel) Add(i, j int) { r.rows[i].Add(j) }

// Remove deletes the pair (i, j).
func (r *Rel) Remove(i, j int) { r.rows[i].Remove(j) }

// Has reports whether the pair (i, j) is present.
func (r *Rel) Has(i, j int) bool { return r.rows[i].Has(j) }

// Row exposes row i (the successor set of event i) for iteration.
func (r *Rel) Row(i int) *bitset.Set { return r.rows[i] }

// Clear removes every pair.
func (r *Rel) Clear() {
	for _, row := range r.rows {
		row.Clear()
	}
}

// CopyFrom overwrites r with o's pairs; universes must match.
func (r *Rel) CopyFrom(o *Rel) {
	r.checkSame(o)
	for i, row := range r.rows {
		row.CopyFrom(o.rows[i])
	}
}

func (r *Rel) checkSame(o *Rel) {
	if o.n != r.n {
		panic(fmt.Sprintf("axiom: relation universe mismatch %d != %d", r.n, o.n))
	}
}

// UnionWith ors o into r.
func (r *Rel) UnionWith(o *Rel) {
	r.checkSame(o)
	for i, row := range r.rows {
		row.UnionWith(o.rows[i])
	}
}

// IntersectWith ands o into r.
func (r *Rel) IntersectWith(o *Rel) {
	r.checkSame(o)
	for i, row := range r.rows {
		row.IntersectWith(o.rows[i])
	}
}

// DifferenceWith removes o's pairs from r.
func (r *Rel) DifferenceWith(o *Rel) {
	r.checkSame(o)
	for i, row := range r.rows {
		row.DifferenceWith(o.rows[i])
	}
}

// SeqInto stores the composition a ; b into r (which must be distinct
// from a): (i, k) ∈ r iff ∃j. (i, j) ∈ a ∧ (j, k) ∈ b.
func (r *Rel) SeqInto(a, b *Rel) {
	r.checkSame(a)
	r.checkSame(b)
	for i := range r.rows {
		out := r.rows[i]
		out.Clear()
		a.rows[i].ForEach(func(j int) bool {
			out.UnionWith(b.rows[j])
			return true
		})
	}
}

// InverseInto stores a's transpose into r (which must be distinct from a).
func (r *Rel) InverseInto(a *Rel) {
	r.checkSame(a)
	r.Clear()
	for i := range a.rows {
		a.rows[i].ForEach(func(j int) bool {
			r.rows[j].Add(i)
			return true
		})
	}
}

// CrossInto stores the cross product s × t into r.
func (r *Rel) CrossInto(s, t *bitset.Set) {
	for i, row := range r.rows {
		if s.Has(i) {
			row.CopyFrom(t)
		} else {
			row.Clear()
		}
	}
}

// DiagInto stores the identity relation restricted to s ([s] in cat
// notation) into r.
func (r *Rel) DiagInto(s *bitset.Set) {
	r.Clear()
	s.ForEach(func(i int) bool {
		r.rows[i].Add(i)
		return true
	})
}

// AddID adds the identity relation to r (e? and e* in cat notation).
func (r *Rel) AddID() {
	for i, row := range r.rows {
		row.Add(i)
	}
}

// Close replaces r with its transitive closure, by reverse-order bitset
// propagation iterated to a fixpoint (the same scheme as package hb's
// happens-before closure; a single pass suffices when edges mostly point
// forward in event order).
func (r *Rel) Close() {
	for changed := true; changed; {
		changed = false
		for i := r.n - 1; i >= 0; i-- {
			row := r.rows[i]
			row.ForEach(func(j int) bool {
				if i != j && row.UnionWith(r.rows[j]) {
					changed = true
				}
				return true
			})
		}
	}
}

// Irreflexive reports whether no event relates to itself.
func (r *Rel) Irreflexive() bool {
	for i, row := range r.rows {
		if row.Has(i) {
			return false
		}
	}
	return true
}

// Empty reports whether the relation holds no pairs.
func (r *Rel) Empty() bool {
	for _, row := range r.rows {
		if !row.Empty() {
			return false
		}
	}
	return true
}

// Acyclic reports whether the relation has no cycle, via an iterative
// three-color depth-first search (no closure materialization: the
// enumerator calls Acyclic at every pruning point).
func (r *Rel) Acyclic() bool {
	const (
		white = 0 // unvisited
		gray  = 1 // on the DFS stack
		black = 2 // finished
	)
	color := make([]uint8, r.n)
	type frame struct {
		node int
		iter int // index into the expanded successor list
	}
	var stack []frame
	var succ []int
	succs := make([][]int, r.n)
	expand := func(i int) []int {
		if succs[i] == nil {
			succs[i] = r.rows[i].Members()
			if succs[i] == nil {
				succs[i] = []int{}
			}
		}
		return succs[i]
	}
	for start := 0; start < r.n; start++ {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], frame{node: start})
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			succ = expand(f.node)
			if f.iter < len(succ) {
				next := succ[f.iter]
				f.iter++
				switch color[next] {
				case gray:
					return false
				case white:
					color[next] = gray
					stack = append(stack, frame{node: next})
				}
				continue
			}
			color[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return true
}

// Pairs returns the relation's pairs in row-major order (for tests and
// diagnostics).
func (r *Rel) Pairs() [][2]int {
	var out [][2]int
	for i, row := range r.rows {
		row.ForEach(func(j int) bool {
			out = append(out, [2]int{i, j})
			return true
		})
	}
	return out
}

// String renders the relation like "{(0,1), (2,0)}".
func (r *Rel) String() string {
	s := "{"
	for k, p := range r.Pairs() {
		if k > 0 {
			s += ", "
		}
		s += fmt.Sprintf("(%d,%d)", p[0], p[1])
	}
	return s + "}"
}

// relArena recycles Rel matrices and event-set bitsets of one fixed
// universe size for the duration of one evaluation or enumeration — the
// axiom engine's analogue of ideal's interpreter arena. Constraint
// evaluation runs at every node of the rf/co search tree, so its
// temporaries must not hit the allocator.
type relArena struct {
	n    int
	rels []*Rel
	sets []*bitset.Set
}

func newRelArena(n int) *relArena { return &relArena{n: n} }

// Rel hands out a cleared relation over the arena's universe.
func (ar *relArena) Rel() *Rel {
	if k := len(ar.rels) - 1; k >= 0 {
		r := ar.rels[k]
		ar.rels = ar.rels[:k]
		r.Clear()
		return r
	}
	return NewRel(ar.n)
}

// PutRel retires a relation for reuse.
func (ar *relArena) PutRel(r *Rel) {
	if r != nil {
		ar.rels = append(ar.rels, r)
	}
}

// Set hands out a cleared event set over the arena's universe.
func (ar *relArena) Set() *bitset.Set {
	if k := len(ar.sets) - 1; k >= 0 {
		s := ar.sets[k]
		ar.sets = ar.sets[:k]
		s.Clear()
		return s
	}
	return bitset.New(ar.n)
}

// PutSet retires an event set for reuse.
func (ar *relArena) PutSet(s *bitset.Set) {
	if s != nil {
		ar.sets = append(ar.sets, s)
	}
}
