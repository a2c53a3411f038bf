package ideal

// arena recycles interpreter clones and scratch slices within one
// enumeration. The interleaving walkers clone the interpreter once per
// step and retire the clone as soon as its subtree is finished; routing
// clones through an arena makes the hot loop allocation-free after
// warm-up (the steady state holds one retired interpreter per tree
// level). An arena is not goroutine-safe; Enumerate uses one per call.
type arena struct {
	interps []*Interp
	scratch [][]int
}

// clone copies it exactly like Interp.Clone, reusing storage retired by
// release when available.
func (ar *arena) clone(it *Interp) *Interp {
	n := len(ar.interps) - 1
	if n < 0 {
		return it.Clone()
	}
	out := ar.interps[n]
	ar.interps[n] = nil
	ar.interps = ar.interps[:n]
	out.copyFrom(it)
	return out
}

// release retires an interpreter's storage for reuse by a later clone.
// The caller must not touch it afterwards.
func (ar *arena) release(it *Interp) {
	if it != nil {
		ar.interps = append(ar.interps, it)
	}
}

// ints returns an empty integer scratch slice, reusing storage retired
// by releaseInts when available.
func (ar *arena) ints() []int {
	n := len(ar.scratch) - 1
	if n < 0 {
		return nil
	}
	out := ar.scratch[n]
	ar.scratch[n] = nil
	ar.scratch = ar.scratch[:n]
	return out[:0]
}

// releaseInts retires an integer scratch slice obtained from ints.
func (ar *arena) releaseInts(s []int) {
	if cap(s) > 0 {
		ar.scratch = append(ar.scratch, s)
	}
}
