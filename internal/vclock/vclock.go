// Package vclock implements vector clocks and an online data-race
// detector for idealized executions, in the spirit of the dynamic
// race-detection work the paper cites (Netzer & Miller 1989). It detects
// the happens-before races of Definition 3 for a single observed
// execution in time near-linear in the execution length, rather than the
// quadratic pairwise analysis of package hb. It is how the DRF0 checker
// (package drf) decides each enumerated execution: one Detector, Reset
// between executions, makes one pass per execution, and hb explains
// only the executions it reports.
//
// Clock discipline (djit+-style): each processor carries a vector clock;
// a synchronization operation on location L first acquires (joins L's
// released clock), is then checked and recorded, and finally — if it
// releases — stores the processor's clock into L and ticks the
// processor's own component. Under hb.SyncAll every synchronization
// operation releases; under hb.SyncWriterOrdered (the Section 6
// refinement) only synchronization operations with a write component do.
package vclock

import (
	"fmt"
	"strings"

	"weakorder/internal/hb"
	"weakorder/internal/mem"
)

// VC is a vector clock over a fixed number of processors.
type VC []uint64

// NewVC returns a zero clock for n processors.
func NewVC(n int) VC { return make(VC, n) }

// Clone returns an independent copy.
func (v VC) Clone() VC {
	out := make(VC, len(v))
	copy(out, v)
	return out
}

// Join sets v to the pointwise maximum of v and other.
func (v VC) Join(other VC) {
	for i, t := range other {
		if t > v[i] {
			v[i] = t
		}
	}
}

// Tick increments processor p's component.
func (v VC) Tick(p int) { v[p]++ }

// LEQ reports whether v ≤ other pointwise.
func (v VC) LEQ(other VC) bool {
	for i, t := range v {
		if t > other[i] {
			return false
		}
	}
	return true
}

// Concurrent reports whether neither clock precedes the other.
func (v VC) Concurrent(other VC) bool { return !v.LEQ(other) && !other.LEQ(v) }

// String renders the clock like "<1,0,3>".
func (v VC) String() string {
	parts := make([]string, len(v))
	for i, t := range v {
		parts[i] = fmt.Sprintf("%d", t)
	}
	return "<" + strings.Join(parts, ",") + ">"
}

// locState tracks per-location access history. Data and synchronization
// access histories are kept separately because sync-sync conflicts are
// ordered (hb.SyncAll) or exempt (hb.SyncWriterOrdered) while sync-data
// conflicts are genuine race candidates.
type locState struct {
	dataWriteVC VC   // join of clocks at all data writes
	dataReadVC  VC   // per-processor clock component at its last data read
	syncWriteVC VC   // join of clocks at all sync write components
	syncReadVC  VC   // per-processor clock component at its last sync read
	lastWriter  int  // processor of the most recent write of either kind, -1 if none
	released    VC   // clock stored by the last releasing sync op
	haveRelease bool // whether any sync op has released on this location
}

// Race describes one detected race: the operation whose execution exposed
// it and the processor of the earlier conflicting access.
type Race struct {
	// Op is the operation whose execution exposed the race.
	Op mem.Op
	// PriorProc is the processor of the earlier conflicting access.
	PriorProc int
	// PriorWrite reports whether the earlier access was a write.
	PriorWrite bool
}

// String renders the race.
func (r Race) String() string {
	kind := "read"
	if r.PriorWrite {
		kind = "write"
	}
	return fmt.Sprintf("race: %v concurrent with earlier %s by P%d", r.Op, kind, r.PriorProc)
}

// Detector consumes one execution's operations in completion order and
// reports happens-before data races online.
type Detector struct {
	mode   hb.SyncMode
	procs  int
	clocks []VC
	locs   map[mem.Addr]*locState
	races  []Race
}

// NewDetector returns a detector for executions of n processors.
func NewDetector(n int, mode hb.SyncMode) *Detector {
	d := &Detector{
		mode:   mode,
		procs:  n,
		clocks: make([]VC, n),
		locs:   make(map[mem.Addr]*locState),
	}
	for i := range d.clocks {
		d.clocks[i] = NewVC(n)
		// Start each processor's own component at 1 so that accesses with
		// no subsequent release are distinguishable from the zero clock
		// other processors hold for this component.
		d.clocks[i].Tick(i)
	}
	return d
}

// Reset returns the detector to its initial state so that it can check
// another execution of the same processor count, reusing its storage.
func (d *Detector) Reset() {
	for i, clk := range d.clocks {
		clear(clk)
		clk.Tick(i)
	}
	for _, ls := range d.locs {
		ls.reset()
	}
	d.races = d.races[:0]
}

func (d *Detector) loc(a mem.Addr) *locState {
	ls, ok := d.locs[a]
	if !ok {
		ls = &locState{
			dataWriteVC: NewVC(d.procs),
			dataReadVC:  NewVC(d.procs),
			syncWriteVC: NewVC(d.procs),
			syncReadVC:  NewVC(d.procs),
			released:    NewVC(d.procs),
			lastWriter:  -1,
		}
		d.locs[a] = ls
	}
	return ls
}

// reset empties a location's history, keeping its clocks' storage.
func (ls *locState) reset() {
	clear(ls.dataWriteVC)
	clear(ls.dataReadVC)
	clear(ls.syncWriteVC)
	clear(ls.syncReadVC)
	clear(ls.released)
	ls.lastWriter = -1
	ls.haveRelease = false
}

// Observe processes the next operation in completion order.
func (d *Detector) Observe(op mem.Op) {
	if op.Proc < 0 || op.Proc >= d.procs {
		return // boundary/augmentation operations carry no new ordering here
	}
	ls := d.loc(op.Addr)
	clk := d.clocks[op.Proc]

	if op.IsSync() {
		// Acquire first: hb paths through this location's prior releasing
		// synchronization are real and may order earlier data accesses.
		// Under SyncPairedRA only read-component sync ops acquire.
		if ls.haveRelease && (d.mode != hb.SyncPairedRA || op.HasReadComponent()) {
			clk.Join(ls.released)
		}
		// A synchronization operation conflicts with *data* accesses to
		// the same location; sync-sync pairs are ordered (SyncAll) or
		// exempt (SyncWriterOrdered) and are not checked.
		if !ls.dataWriteVC.LEQ(clk) {
			d.races = append(d.races, Race{Op: op, PriorProc: ls.lastWriter, PriorWrite: true})
		}
		if op.HasWriteComponent() {
			for p, t := range ls.dataReadVC {
				if p != op.Proc && t > clk[p] {
					d.races = append(d.races, Race{Op: op, PriorProc: p, PriorWrite: false})
				}
			}
		}
		// Record this sync op's components in the sync history so later
		// *data* accesses racing with it are caught.
		if op.HasReadComponent() {
			ls.syncReadVC[op.Proc] = clk[op.Proc]
		}
		if op.HasWriteComponent() {
			ls.syncWriteVC.Join(clk)
			ls.lastWriter = op.Proc
		}
		// Release. Under SyncPairedRA successive releases do not acquire
		// from each other, so the location's released clock accumulates
		// by join (an acquire is ordered after every earlier release);
		// under the other modes each releaser has already acquired the
		// previous clock, so overwrite is equivalent.
		if d.mode == hb.SyncAll || op.HasWriteComponent() {
			if d.mode == hb.SyncPairedRA && ls.haveRelease {
				ls.released.Join(clk)
			} else {
				copy(ls.released, clk)
			}
			ls.haveRelease = true
			clk.Tick(op.Proc)
		}
		return
	}

	switch op.Kind {
	case mem.Read:
		if !ls.dataWriteVC.LEQ(clk) || !ls.syncWriteVC.LEQ(clk) {
			d.races = append(d.races, Race{Op: op, PriorProc: ls.lastWriter, PriorWrite: true})
		}
		ls.dataReadVC[op.Proc] = clk[op.Proc]
	case mem.Write:
		if !ls.dataWriteVC.LEQ(clk) || !ls.syncWriteVC.LEQ(clk) {
			d.races = append(d.races, Race{Op: op, PriorProc: ls.lastWriter, PriorWrite: true})
		}
		for p, t := range ls.dataReadVC {
			if p != op.Proc && t > clk[p] {
				d.races = append(d.races, Race{Op: op, PriorProc: p, PriorWrite: false})
			}
		}
		for p, t := range ls.syncReadVC {
			if p != op.Proc && t > clk[p] {
				d.races = append(d.races, Race{Op: op, PriorProc: p, PriorWrite: false})
			}
		}
		ls.dataWriteVC.Join(clk)
		ls.lastWriter = op.Proc
	}
}

// Races returns the races detected so far.
func (d *Detector) Races() []Race { return d.races }

// HasRace reports whether any race was detected.
func (d *Detector) HasRace() bool { return len(d.races) > 0 }

// CheckExecution runs a fresh detector over an execution and returns the
// races found.
func CheckExecution(e *mem.Execution, mode hb.SyncMode) []Race {
	d := NewDetector(e.Procs, mode)
	for _, op := range e.Ops {
		d.Observe(op)
	}
	return d.Races()
}
