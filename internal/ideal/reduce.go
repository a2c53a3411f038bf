package ideal

import (
	"errors"
	"math/bits"

	"weakorder/internal/mem"
)

// Partial-order reduction for Enumerate (EnumConfig.Reduce).
//
// Two adjacent steps of different threads commute whenever their memory
// operations are independent, so all interleavings of one Mazurkiewicz
// trace produce the same mem.Result: the same value for every dynamic
// read (reads are keyed by OpID and each thread's operations stay in
// program order) and the same final memory. The reducer therefore
// explores one representative ordering per trace:
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
// Dependence is conflict in the paper's Definition 3 sense —
// mem.Conflict: same address with at least one write component —
// optionally strengthened by PreserveSyncOrder to keep same-address
// synchronization pairs ordered (the hb builders serialize those by
// completion order even when both only read).

// maxReduceThreads bounds the sleep-set bitmask; programs with more
// threads fall back to naive enumeration.
const maxReduceThreads = 64

type reducer struct {
	cfg   EnumConfig
	stats *EnumStats
	visit Visitor
	// memo maps state+reads keys to the sleep sets under which the
	// state was already fully explored.
	memo map[string][]uint64
	// ar recycles per-step interpreter clones and runnable scratch;
	// keyBuf is memoKey's build buffer (safe to share across levels
	// because the memo is read and written before any recursion).
	ar     *arena
	keyBuf []byte
}

// explore enumerates representatives of the complete executions
// reachable from it whose first step is not a sleeping thread. reads
// holds each thread's read-value history along the current path.
func (r *reducer) explore(it *Interp, sleep uint64, reads [][]byte) error {
	if r.cfg.MaxPaths > 0 && r.stats.Steps > r.cfg.MaxPaths {
		return ErrBudget
	}
	if r.cfg.canceled(r.stats.Steps) {
		return ErrCanceled
	}
	if it.Done() {
		r.stats.Executions++
		if r.cfg.MaxExecutions > 0 && r.stats.Executions > r.cfg.MaxExecutions {
			return ErrBudget
		}
		return r.visit(it)
	}
	key := r.memoKey(it, reads)
	visits := r.memo[string(key)]
	for _, m := range visits {
		if m&^sleep == 0 {
			r.stats.MemoHits++
			return nil
		}
	}
	// Mark on entry: the interleaving graph is acyclic (every step
	// lengthens the trace), so a state can never re-reach itself and a
	// revisit only happens after this call completes.
	r.memo[string(key)] = append(visits, sleep)
	run := it.RunnableInto(r.ar.ints())
	for _, tid := range run {
		bit := uint64(1) << uint(tid)
		if sleep&bit != 0 {
			r.stats.SleepPruned++
			continue
		}
		child := r.ar.clone(it)
		op, ok, err := child.Step(tid)
		if err == nil && ok && r.cfg.contradicts(op) {
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
		childSleep := sleep
		childReads := reads
		if ok {
			childSleep = r.filterSleep(it, sleep, op)
			if op.HasReadComponent() && r.cfg.Observed == nil {
				childReads = appendRead(reads, tid, op.Got)
			}
		}
		err = r.explore(child, childSleep, childReads)
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
// aliases r.keyBuf and is valid only until the next memoKey call; map
// lookups via string(key) do not allocate, and the store's string
// conversion copies.
func (r *reducer) memoKey(it *Interp, reads [][]byte) []byte {
	key := it.AppendStateKey(r.keyBuf[:0])
	for _, log := range reads {
		key = appendVarint(key, int64(len(log)))
		key = append(key, log...)
	}
	r.keyBuf = key
	return key
}

// appendRead extends thread tid's read log with value v, copying so
// sibling branches do not share backing arrays.
func appendRead(reads [][]byte, tid int, v mem.Value) [][]byte {
	out := make([][]byte, len(reads))
	copy(out, reads)
	log := make([]byte, len(out[tid]), len(out[tid])+2)
	copy(log, out[tid])
	out[tid] = appendVarint(log, int64(v))
	return out
}
