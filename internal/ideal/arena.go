package ideal

// arena recycles interpreter clones and scratch slices within one
// enumeration. The interleaving walk clones the interpreter once per
// step and retires the clone as soon as its subtree is finished; routing
// clones through an arena makes the hot loop allocation-free after
// warm-up (the steady state holds one retired interpreter per tree
// level). An arena is not goroutine-safe; Enumerate uses one per call.
type arena struct {
	interps []*Interp
	scratch [][]int
	logs    [][][]byte
}

// clone copies it's state into a retired interpreter, or a new one when
// none is retired, sharing it's trace (see copyFrom).
func (ar *arena) clone(it *Interp) *Interp {
	var out *Interp
	if n := len(ar.interps) - 1; n >= 0 {
		out = ar.interps[n]
		ar.interps[n] = nil
		ar.interps = ar.interps[:n]
	} else {
		out = new(Interp)
	}
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

// readLogs returns a copy of the reducer's per-thread read logs,
// reusing header storage retired by releaseReadLogs. The logs' bytes
// are shared like the trace: a child appends its read in place, past
// the end of its parent's log, where only a finished sibling wrote.
func (ar *arena) readLogs(reads [][]byte) [][]byte {
	var out [][]byte
	if n := len(ar.logs) - 1; n >= 0 {
		out = ar.logs[n][:0]
		ar.logs[n] = nil
		ar.logs = ar.logs[:n]
	}
	return append(out, reads...)
}

// releaseReadLogs retires headers obtained from readLogs.
func (ar *arena) releaseReadLogs(l [][]byte) {
	ar.logs = append(ar.logs, l)
}
