package ideal

import (
	"errors"
	"math/bits"

	"weakorder/internal/mem"
)

// The interleaving walk behind Enumerate, and its partial-order
// reduction (EnumConfig.Reduce).
//
// Two adjacent steps of different threads commute whenever their memory
// operations are independent, so all interleavings of one Mazurkiewicz
// trace produce the same mem.Result: the same value for every dynamic
// read (reads are keyed by OpID and each thread's operations stay in
// program order) and the same final memory. With reduction on, the
// walk explores one representative ordering per trace:
//
//   - Sleep sets (Godefroid): after fully exploring the branch that
//     steps thread t first, t is added to the sleep set for the
//     remaining sibling branches — any trace beginning with an
//     independent prefix followed by t is equivalent to one already
//     explored. A sleeping thread wakes only when a dependent
//     operation executes.
//   - Memoization: a state reached twice with the same pending read
//     observations has the same set of future results. States are
//     keyed by Interp.AppendStateKey plus each thread's read-value
//     history (two paths to one state key can observe different read
//     values, which the key's registers alone do not distinguish; under
//     EnumConfig.Observed they cannot, so the history is left out), and
//     a revisit is skipped only when a previous visit's sleep set was a
//     subset of the current one — otherwise the earlier visit explored
//     strictly fewer first-steps and the state must be re-expanded.
//
// With reduction off the walk has no memo, and every child starts with
// an empty sleep set, so it visits every interleaving.
//
// Dependence is conflict in the paper's Definition 3 sense —
// mem.Conflict: same address with at least one write component —
// optionally strengthened by PreserveSyncOrder to keep same-address
// synchronization pairs ordered (the hb builders serialize those by
// completion order even when both only read).

// maxReduceThreads bounds the sleep-set bitmask; wider programs are
// walked without reduction.
const maxReduceThreads = 64

// reducer is one depth-first walk of Enumerate.
type reducer struct {
	cfg   EnumConfig
	stats *EnumStats
	visit Visitor
	// memo maps state+reads keys to the sleep sets under which the
	// state was already fully explored; nil when reduction is off.
	memo *memo
	// ar recycles per-step interpreter clones and runnable scratch;
	// keyBuf is memoKey's build buffer (safe to share across levels
	// because the memo is read and written before any recursion).
	ar     arena
	keyBuf []byte
}

// explore visits the complete executions reachable from it whose first
// step is not a sleeping thread: a representative of each trace under
// reduction, every one without. reads holds each thread's read-value
// history along the current path (nil without reduction).
func (r *reducer) explore(it *Interp, sleep uint64, reads [][]byte) error {
	if r.cfg.MaxPaths > 0 && r.stats.Steps > r.cfg.MaxPaths {
		return ErrBudget
	}
	if r.cfg.canceled(r.stats.Steps) {
		return ErrCanceled
	}
	if it.Done() {
		r.stats.Executions++
		return r.visit(it)
	}
	// covered marks the state on entry: the interleaving graph is
	// acyclic (every step lengthens the trace), so a state can never
	// re-reach itself and a revisit only happens after this call
	// completes.
	if r.memo != nil && r.memo.covered(r.memoKey(it, reads), sleep) {
		r.stats.MemoHits++
		return nil
	}
	run := it.RunnableInto(r.ar.ints())
	for _, tid := range run {
		bit := uint64(1) << uint(tid)
		if sleep&bit != 0 {
			r.stats.SleepPruned++
			continue
		}
		child := r.ar.clone(it)
		op, err := child.Step(tid)
		if err == nil && r.cfg.contradicts(op) {
			// Until a conflicting write wakes tid, its pending read
			// returns the same contradicting value in every sibling.
			r.ar.release(child)
			sleep |= bit
			continue
		}
		r.stats.Steps++
		switch {
		case errors.Is(err, ErrTruncated):
			r.ar.release(child)
			r.stats.Truncated++
			if r.cfg.SkipTruncated {
				// tid's budget is exhausted in every state of this
				// subtree where tid has not stepped, so sibling
				// branches may sleep it: the pruned branches are
				// exactly the ones that would truncate again.
				sleep |= bit
				continue
			}
			return ErrTruncated
		case err != nil:
			r.ar.release(child)
			return err
		}
		if r.memo == nil {
			err = r.explore(child, 0, nil)
		} else {
			childReads := r.ar.readLogs(reads)
			if op.HasReadComponent() && r.cfg.Observed == nil {
				childReads[tid] = appendVarint(childReads[tid], int64(op.Got))
			}
			err = r.explore(child, r.filterSleep(it, sleep, op), childReads)
			r.ar.releaseReadLogs(childReads)
		}
		r.ar.release(child)
		if err != nil {
			return err
		}
		// Every trace from it starting with tid now has an explored
		// representative; later siblings need not re-step tid until a
		// dependent operation wakes it.
		sleep |= bit
	}
	r.ar.releaseInts(run)
	return nil
}

// filterSleep wakes every sleeping thread whose pending operation
// depends on the operation just executed: commuting it past op would
// reorder a dependent pair, so its first-step traces are no longer
// covered.
func (r *reducer) filterSleep(it *Interp, sleep uint64, op mem.Op) uint64 {
	out := sleep
	for s := sleep; s != 0; s &= s - 1 {
		u := bits.TrailingZeros64(s)
		addr, kind, known := it.PendingAccess(u)
		if !known || dependent(addr, kind, op, r.cfg.PreserveSyncOrder) {
			out &^= uint64(1) << uint(u)
		}
	}
	return out
}

// dependent reports whether a pending access (addr, kind) and an
// executed operation must not be reordered: they conflict (Definition
// 3 — same address, at least one writes), or, under PreserveSyncOrder,
// they are same-address synchronization operations.
func dependent(addr mem.Addr, kind mem.Kind, op mem.Op, syncOrder bool) bool {
	if addr != op.Addr {
		return false
	}
	if kind.WritesMemory() || op.Kind.WritesMemory() {
		return true
	}
	return syncOrder && kind.IsSync() && op.Kind.IsSync()
}

// memoKey fingerprints the interpreter state plus the read-value
// history that determines the eventual mem.Result. The returned slice
// aliases r.keyBuf and is valid only until the next memoKey call; the
// memo copies what it keeps.
func (r *reducer) memoKey(it *Interp, reads [][]byte) []byte {
	key := it.AppendStateKey(r.keyBuf[:0])
	for _, log := range reads {
		key = appendVarint(key, int64(len(log)))
		key = append(key, log...)
	}
	r.keyBuf = key
	return key
}
