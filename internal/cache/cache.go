package cache

import (
	"fmt"
	"slices"

	"weakorder/internal/mem"
	"weakorder/internal/metrics"
	"weakorder/internal/network"
	"weakorder/internal/sim"
)

// LineState is a cache's view of one line.
type LineState uint8

// Cache line states (MSI with a single dirty/exclusive state).
const (
	// LineInvalid: not present (lines are removed from the map instead).
	LineInvalid LineState = iota
	// LineShared: read-only copy; memory is up to date.
	LineShared
	// LineExclusive: sole, potentially dirty copy.
	LineExclusive
)

// String names the state.
func (s LineState) String() string {
	switch s {
	case LineInvalid:
		return "Invalid"
	case LineShared:
		return "Shared"
	case LineExclusive:
		return "Exclusive"
	default:
		return fmt.Sprintf("LineState(%d)", uint8(s))
	}
}

// Req is one processor-issued memory operation. The cache calls OnCommit
// when the operation commits (read value bound / local copy modified) and
// OnGlobal when it is globally performed (all invalidations acknowledged;
// for reads and writes with no other copies, this coincides with commit).
type Req struct {
	// Kind classifies the operation; all five mem.Kind values are legal.
	Kind mem.Kind
	// Addr is the accessed location (one line per location).
	Addr mem.Addr
	// Data is the value to write, for operations with a write component
	// (a TAS passes 1).
	Data mem.Value
	// OnCommit receives the read value (reads/RMW) or the written value.
	OnCommit func(v mem.Value)
	// OnGlobal fires when the operation is globally performed. Optional.
	OnGlobal func()
}

// Config parameterizes a cache.
type Config struct {
	// ID is the cache's network endpoint (equal to its processor id).
	ID int
	// Home maps an address to its directory's endpoint id.
	Home func(mem.Addr) int
	// HitLatency is the cycles from issue to commit on a hit (>= 1).
	HitLatency sim.Time
	// Capacity bounds the number of resident lines (0 = unbounded).
	// Victims are chosen FIFO, skipping reserved lines (the paper: a
	// reserved line is never flushed) — if every line is ineligible the
	// cache temporarily overflows and records it.
	Capacity int
	// UseReserve enables the Section 5.3 reserve-bit mechanism: a
	// synchronization operation that commits while the counter is
	// positive reserves its line, and forwarded requests for a reserved
	// line are deferred until the counter reads zero.
	UseReserve bool
	// ROSyncBypass enables the Section 6 refinement: read-only
	// synchronization operations (Test) are serviced like data reads — a
	// cached shared copy that subsequent spins hit locally — instead of
	// exclusive acquisitions, and they never set reserve bits. A reserved
	// line refuses the downgrade (the forward defers until the counter
	// reads zero), so reserved lines always remain exclusive and the
	// deadlock-freedom argument of Section 5.3 is unaffected.
	ROSyncBypass bool
	// ROSyncUncached (with ROSyncBypass) switches Tests to uncached
	// remote value reads (MsgSyncRead) answered even by reserved owners —
	// an ablation showing why the cached-shared variant is the right
	// reading of Section 6 under contention.
	ROSyncUncached bool
	// RetryTimeout arms the request-retry protocol: a request-class
	// message (GetS, GetX, SyncRead, PutX) unanswered after this many
	// cycles is re-sent with the same transaction id, with exponential
	// backoff between attempts, capped at 8*RetryTimeout. Zero disables
	// retry. Required when the interconnect may drop requests (fault
	// injection); harmless otherwise — a spurious retry of a request
	// queued at a busy directory line is absorbed by the directory's
	// dedup.
	RetryTimeout sim.Time
	// RetryMax bounds resends per transaction (default 16 when
	// RetryTimeout > 0). An exhausted transaction stops retrying and is
	// reported via ExhaustedLines; if it was genuinely lost the machine's
	// watchdog turns that into a LivenessReport.
	RetryMax int
	// OnRetry observes every resend: destination endpoint, the re-sent
	// message, and the attempt number (1-based). Used to interleave
	// RETRY events into fault timelines. Optional.
	OnRetry func(dst int, m network.Msg, attempt int)

	// Telemetry (optional; nil instruments record nothing and cost one
	// nil check — see internal/metrics). None of these alter protocol
	// behavior.

	// ReserveHold observes how long each reserve bit was held, in cycles,
	// at the moment the counter reads zero and clears it.
	ReserveHold *metrics.Histogram
	// DeferHold observes how long each reserve-deferred forward waited —
	// the per-request view of Stats.DeferredCycles.
	DeferHold *metrics.Histogram
	// RetryBackoff observes the backoff armed after each resend.
	RetryBackoff *metrics.Histogram
}

// Stats counts cache activity.
type Stats struct {
	Hits           uint64
	Misses         uint64
	Upgrades       uint64
	SyncRequests   uint64 // sync ops issued to the protocol (GetX sync / SyncRead)
	DeferredFwds   uint64 // forwarded requests deferred by a reserve bit
	DeferredCycles uint64 // total cycles forwarded requests spent deferred
	Evictions      uint64
	Writebacks     uint64
	Overflows      uint64 // fills admitted past capacity (no eligible victim)
	InvsReceived   uint64
	Retries        uint64 // timed-out requests re-sent
	RetryExhausted uint64 // transactions that hit RetryMax and gave up
}

type line struct {
	state      LineState
	val        mem.Value
	reserved   bool
	listIdx    int32    // position in Cache.lineList (swap-removed on delete)
	reservedAt sim.Time // cycle the reserve bit was set (telemetry only)
	// pendingLocal counts processor hits in flight (issued, commit
	// scheduled): forwarded requests must not transfer the line out from
	// under a local operation that has already won it.
	pendingLocal int
	// deferred holds forwarded requests stalled by the reserve bit or by
	// an in-flight local hit.
	deferred []deferredFwd
	insertAt uint64 // fill order for FIFO victimization
}

type deferredFwd struct {
	msg   network.Msg
	since sim.Time
}

type mshrSort uint8

const (
	fetchS mshrSort = iota
	fetchX
	fetchSyncRead
)

type mshr struct {
	addr     mem.Addr
	sort     mshrSort
	sync     bool   // the fetch is on behalf of a synchronization op
	dataMiss bool   // the fetch holds a counter unit (data read/write miss)
	listIdx  int32  // position in Cache.mshrList (swap-removed on retire)
	ops      []*Req // operations waiting on this line, in program order
	fwds     []deferredFwd
	retry    retryState
}

// retryState tracks one outstanding request-class message for the
// timeout/retry protocol. A zero deadline means retry is disarmed for
// this transaction.
type retryState struct {
	lastMsg   network.Msg // the request as sent, re-sent verbatim on timeout
	attempts  int         // resends so far
	deadline  sim.Time    // next timeout; 0 = disarmed
	exhausted bool        // RetryMax reached; no further resends
}

// wbTxn is an outstanding PutX writeback awaiting its WBAck.
type wbTxn struct {
	retry   retryState
	listIdx int32 // position in Cache.wbList (swap-removed on ack)
}

type ackState struct {
	counted bool     // holds one counter unit until MemAck
	waiters []func() // OnGlobal callbacks awaiting the MemAck
}

// debugTrace, when set by tests, observes every message delivery.
var debugTrace func(cacheID, src int, m network.Msg)

// lineChunk sizes the line-arena chunks (see newLine).
const lineChunk = 32

// hitTask is one pooled scheduled hit commit: the kernel callback
// closure is allocated once per task and reused, so steady-state hits
// schedule zero new closures.
type hitTask struct {
	c    *Cache
	l    *line
	r    *Req
	addr mem.Addr
	run  func()
}

func (t *hitTask) fire() {
	c, l, r, addr := t.c, t.l, t.r, t.addr
	t.l, t.r = nil, nil
	c.hitFree = append(c.hitFree, t)
	c.commitOnLine(l, r)
	l.pendingLocal--
	if l.pendingLocal == 0 {
		c.flushDeferred(addr, l)
	}
}

// Cache is one processor's cache plus the Section 5.3 counter and
// reserve-bit logic.
type Cache struct {
	k   *sim.Kernel
	net network.Network
	cfg Config

	// Per-address state lives in dense addr-indexed tables instead of
	// maps: program addresses are allocated densely from zero, so a slice
	// index replaces a map probe on every protocol event, and the tables
	// memclr on Reset instead of rehashing. All four tables (plus
	// inSweep) grow in lockstep via ensureAddr.
	//
	// lineTab holds the arena slot+1 of the resident line (0 = absent);
	// the others hold pooled objects directly. Compact unordered
	// address lists (lineList/mshrList/wbList, swap-removed via each
	// object's listIdx) give the iteration paths — victim scans, retry
	// ticks, diagnostics — work proportional to the active population,
	// not the address space.
	lineTab  []int32
	mshrTab  []*mshr
	ackTab   []*ackState
	wbTab    []*wbTxn // PutX issued, WBAck pending
	inSweep  []bool   // addr queued in sweepAddrs for the counter-zero sweep
	lineList []mem.Addr
	mshrList []mem.Addr
	wbList   []mem.Addr
	// sweepAddrs accumulates addresses that set a reserve bit or parked a
	// deferred forward; the counter-zero sweep sorts and walks these
	// instead of scanning every resident line.
	sweepAddrs []mem.Addr
	nAcks      int

	// nextReqID numbers request-class transactions for directory-side
	// deduplication; ids start at 1 (0 = "no dedup").
	nextReqID uint64
	// counter is the paper's per-processor counter: outstanding data
	// misses plus committed writes awaiting their memory (all-invalidated)
	// acknowledgement.
	counter int
	fillSeq uint64
	stats   Stats
	// onCounterZero hooks external waiters (processor eviction stalls).
	onCounterZero []func()
	// busy, when set (TrackBusy), holds this cache's ID exactly while
	// mshrList or wbList is non-empty.
	busy *BusySet

	// nReserved / nDeferred track how many lines hold a reserve bit and
	// how many forwards sit deferred, so the counter-zero sweep and
	// Busy() skip the line scan entirely in the common (empty) case.
	nReserved int
	nDeferred int

	// Line arena: lines are handed out from fixed-size chunks and the
	// whole arena rewinds on Reset, so a pooled cache's steady-state fill
	// path allocates nothing. Lines deleted mid-run are not recycled
	// (their number is bounded by the run's fills); pointer identity
	// stays deterministic because slots are issued in fill order.
	lineChunks [][]line
	lineN      int

	// Free lists (populated as objects retire, drained by allocation).
	mshrFree []*mshr
	ackFree  []*ackState
	wbFree   []*wbTxn
	hitFree  []*hitTask

	// Scratch buffers reused by the per-cycle/per-event sweeps.
	scratchAddrs []mem.Addr
	scratchWork  []deferredWork
}

// deferredWork is one collected deferred forward during a counter-zero
// sweep (collected first: servicing can mutate c.lines).
type deferredWork struct {
	addr  mem.Addr
	msg   network.Msg
	since sim.Time
}

// New constructs a cache attached to the network at cfg.ID.
func New(k *sim.Kernel, net network.Network, cfg Config) *Cache {
	if cfg.HitLatency == 0 {
		cfg.HitLatency = 1
	}
	if cfg.Home == nil {
		panic("cache: Config.Home is required")
	}
	c := &Cache{
		k:   k,
		net: net,
		cfg: cfg,
	}
	c.Reset(cfg.RetryTimeout, cfg.RetryMax)
	net.Attach(cfg.ID, c.handle)
	return c
}

// Reset rewinds the cache to its post-construction state for a fresh run
// on the same wiring: all lines, transactions, counters, and statistics
// are cleared while the arena chunks, free lists, and map buckets are
// retained for reuse. The caller guarantees the kernel is drained (no
// hit commits in flight). Retry parameters may be re-tuned per run.
func (c *Cache) Reset(retryTimeout sim.Time, retryMax int) {
	clear(c.lineTab)
	c.lineList = c.lineList[:0]
	for _, a := range c.mshrList {
		c.releaseMSHR(c.mshrTab[a])
	}
	clear(c.mshrTab)
	c.mshrList = c.mshrList[:0]
	for i, a := range c.ackTab {
		if a != nil {
			c.releaseAck(a)
			c.ackTab[i] = nil
		}
	}
	c.nAcks = 0
	for _, a := range c.wbList {
		c.wbFree = append(c.wbFree, c.wbTab[a])
	}
	clear(c.wbTab)
	c.wbList = c.wbList[:0]
	clear(c.inSweep)
	c.sweepAddrs = c.sweepAddrs[:0]
	c.nextReqID = 0
	c.counter = 0
	c.fillSeq = 0
	c.stats = Stats{}
	c.onCounterZero = c.onCounterZero[:0]
	c.nReserved = 0
	c.nDeferred = 0
	c.lineN = 0
	c.noteBusy()
	c.cfg.RetryTimeout = retryTimeout
	c.cfg.RetryMax = retryMax
	if retryTimeout > 0 && retryMax == 0 {
		c.cfg.RetryMax = 16
	}
}

// SetOnRetry replaces the retry observer (pooled machines rebuild their
// fault injector per run).
func (c *Cache) SetOnRetry(fn func(dst int, m network.Msg, attempt int)) {
	c.cfg.OnRetry = fn
}

// newLine hands out a zeroed line from the arena.
func (c *Cache) newLine() *line {
	ci, li := c.lineN/lineChunk, c.lineN%lineChunk
	if ci == len(c.lineChunks) {
		c.lineChunks = append(c.lineChunks, make([]line, lineChunk))
	}
	c.lineN++
	l := &c.lineChunks[ci][li]
	*l = line{deferred: l.deferred[:0]}
	return l
}

// newMSHR hands out a cleared MSHR from the free list.
func (c *Cache) newMSHR(addr mem.Addr) *mshr {
	var m *mshr
	if n := len(c.mshrFree); n > 0 {
		m = c.mshrFree[n-1]
		c.mshrFree = c.mshrFree[:n-1]
		*m = mshr{addr: addr, ops: m.ops[:0], fwds: m.fwds[:0]}
	} else {
		m = &mshr{addr: addr}
	}
	return m
}

// releaseMSHR returns a retired MSHR to the free list. Callers must be
// done iterating its ops/fwds slices: the next newMSHR reuses them.
func (c *Cache) releaseMSHR(m *mshr) {
	for i := range m.ops {
		m.ops[i] = nil
	}
	c.mshrFree = append(c.mshrFree, m)
}

// newAck hands out a cleared ackState from the free list.
func (c *Cache) newAck() *ackState {
	var a *ackState
	if n := len(c.ackFree); n > 0 {
		a = c.ackFree[n-1]
		c.ackFree = c.ackFree[:n-1]
		a.counted = false
		a.waiters = a.waiters[:0]
	} else {
		a = &ackState{}
	}
	return a
}

// releaseAck returns a retired ackState to the free list.
func (c *Cache) releaseAck(a *ackState) {
	for i := range a.waiters {
		a.waiters[i] = nil
	}
	c.ackFree = append(c.ackFree, a)
}

// ---------------------------------------------------------------------------
// Dense per-address tables. Lookups are slice indexes; the active-list
// append/swap-remove pairs keep iteration proportional to live state.

// ensureAddr grows every dense table to cover addr (they stay the same
// length so one check covers all).
func (c *Cache) ensureAddr(a mem.Addr) {
	for int(a) >= len(c.lineTab) {
		c.lineTab = append(c.lineTab, 0)
		c.mshrTab = append(c.mshrTab, nil)
		c.ackTab = append(c.ackTab, nil)
		c.wbTab = append(c.wbTab, nil)
		c.inSweep = append(c.inSweep, false)
	}
}

// lineAt returns the resident line for a, or nil.
func (c *Cache) lineAt(a mem.Addr) *line {
	if int(a) >= len(c.lineTab) {
		return nil
	}
	idx := c.lineTab[a]
	if idx == 0 {
		return nil
	}
	i := int(idx - 1)
	return &c.lineChunks[i/lineChunk][i%lineChunk]
}

// installLine registers the line just handed out by newLine (arena slot
// lineN-1) as resident at a.
func (c *Cache) installLine(a mem.Addr, l *line) {
	c.ensureAddr(a)
	c.lineTab[a] = int32(c.lineN) // slot+1; newLine already advanced lineN
	l.listIdx = int32(len(c.lineList))
	c.lineList = append(c.lineList, a)
}

// removeLine makes a non-resident. The arena slot is not recycled
// mid-run (bounded by the run's fills), matching the map-based design.
func (c *Cache) removeLine(a mem.Addr, l *line) {
	last := len(c.lineList) - 1
	if i := int(l.listIdx); i != last {
		moved := c.lineList[last]
		c.lineList[i] = moved
		c.lineAt(moved).listIdx = int32(i)
	}
	c.lineList = c.lineList[:last]
	c.lineTab[a] = 0
}

// mshrAt returns the in-flight transaction for a, or nil.
func (c *Cache) mshrAt(a mem.Addr) *mshr {
	if int(a) >= len(c.mshrTab) {
		return nil
	}
	return c.mshrTab[a]
}

// installMSHR registers m as a's in-flight transaction.
func (c *Cache) installMSHR(a mem.Addr, m *mshr) {
	c.ensureAddr(a)
	c.mshrTab[a] = m
	m.listIdx = int32(len(c.mshrList))
	c.mshrList = append(c.mshrList, a)
	c.noteBusy()
}

// removeMSHR retires m without releasing it (callers may still be
// walking its slices; see drainMSHR).
func (c *Cache) removeMSHR(m *mshr) {
	last := len(c.mshrList) - 1
	if i := int(m.listIdx); i != last {
		moved := c.mshrList[last]
		c.mshrList[i] = moved
		c.mshrTab[moved].listIdx = int32(i)
	}
	c.mshrList = c.mshrList[:last]
	c.mshrTab[m.addr] = nil
	c.noteBusy()
}

// ackAt returns a's pending ack collection, or nil.
func (c *Cache) ackAt(a mem.Addr) *ackState {
	if int(a) >= len(c.ackTab) {
		return nil
	}
	return c.ackTab[a]
}

// newWb hands out a cleared writeback transaction from the free list.
func (c *Cache) newWb() *wbTxn {
	var w *wbTxn
	if n := len(c.wbFree); n > 0 {
		w = c.wbFree[n-1]
		c.wbFree = c.wbFree[:n-1]
		*w = wbTxn{}
	} else {
		w = &wbTxn{}
	}
	return w
}

// installWb registers a's outstanding writeback.
func (c *Cache) installWb(a mem.Addr, w *wbTxn) {
	c.ensureAddr(a)
	c.wbTab[a] = w
	w.listIdx = int32(len(c.wbList))
	c.wbList = append(c.wbList, a)
	c.noteBusy()
}

// removeWb completes a's writeback (no-op when none is outstanding,
// matching the old map delete).
func (c *Cache) removeWb(a mem.Addr) {
	if int(a) >= len(c.wbTab) || c.wbTab[a] == nil {
		return
	}
	w := c.wbTab[a]
	last := len(c.wbList) - 1
	if i := int(w.listIdx); i != last {
		moved := c.wbList[last]
		c.wbList[i] = moved
		c.wbTab[moved].listIdx = int32(i)
	}
	c.wbList = c.wbList[:last]
	c.wbTab[a] = nil
	c.wbFree = append(c.wbFree, w)
	c.noteBusy()
}

// BusySet holds the IDs of the caches, among those tracking it, that have
// an outstanding MSHR or writeback: the only caches whose retry timers can
// fire. Each cache updates it as those lists turn non-empty or empty, so
// polling retry deadlines visits busy caches only, never every cache.
type BusySet struct{ ids []int }

// IDs returns the busy caches' IDs in ascending order. Polling does not
// change the set (resends are delivered by kernel events, not inline),
// so the slice may be ranged over while calling CheckTimeouts.
func (s *BusySet) IDs() []int { return s.ids }

func (s *BusySet) set(id int, busy bool) {
	i, found := slices.BinarySearch(s.ids, id)
	if busy && !found {
		s.ids = slices.Insert(s.ids, i, id)
	} else if !busy && found {
		s.ids = slices.Delete(s.ids, i, i+1)
	}
}

// TrackBusy makes s hold this cache's ID exactly while it has an
// outstanding MSHR or writeback.
func (c *Cache) TrackBusy(s *BusySet) {
	c.busy = s
	c.noteBusy()
}

// noteBusy brings c.busy up to date after mshrList or wbList changed.
func (c *Cache) noteBusy() {
	if c.busy != nil {
		c.busy.set(c.cfg.ID, len(c.mshrList)+len(c.wbList) > 0)
	}
}

// markSweep queues a for the next counter-zero sweep (the line set a
// reserve bit or parked a deferred forward). The line is resident, so
// the tables already cover a.
func (c *Cache) markSweep(a mem.Addr) {
	if !c.inSweep[a] {
		c.inSweep[a] = true
		c.sweepAddrs = append(c.sweepAddrs, a)
	}
}

// Counter returns the paper's outstanding-access counter.
func (c *Cache) Counter() int { return c.counter }

// Busy reports whether any transaction, deferred forward, or pending
// acknowledgement is outstanding (used for drain detection).
func (c *Cache) Busy() bool {
	return len(c.mshrList) > 0 || c.nAcks > 0 || len(c.wbList) > 0 || c.nDeferred > 0
}

// Stats returns cache statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Snoop returns the cache's value for addr and whether it holds the line
// exclusively (dirty); used for final-state extraction.
func (c *Cache) Snoop(addr mem.Addr) (mem.Value, bool) {
	if l := c.lineAt(addr); l != nil && l.state == LineExclusive {
		return l.val, true
	}
	return 0, false
}

// LineInfo exposes a line's state and reserve bit for tests/invariants.
func (c *Cache) LineInfo(addr mem.Addr) (LineState, bool) {
	if l := c.lineAt(addr); l != nil {
		return l.state, l.reserved
	}
	return LineInvalid, false
}

// ReservedLines returns the addresses currently reserved (for tests).
func (c *Cache) ReservedLines() []mem.Addr {
	var out []mem.Addr
	for _, a := range c.lineList {
		if c.lineAt(a).reserved {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return out
}

// WhenCounterZero registers fn to run the next time the counter reads
// zero; if it is already zero, fn runs immediately.
func (c *Cache) WhenCounterZero(fn func()) {
	if c.counter == 0 {
		fn()
		return
	}
	c.onCounterZero = append(c.onCounterZero, fn)
}

// Issue starts a memory operation. Operations to the same line are
// serviced in issue order.
func (c *Cache) Issue(r *Req) {
	if m := c.mshrAt(r.Addr); m != nil {
		m.ops = append(m.ops, r)
		return
	}
	l := c.lineAt(r.Addr)
	if l != nil && c.satisfiable(l, r) {
		c.stats.Hits++
		l.pendingLocal++
		var t *hitTask
		if n := len(c.hitFree); n > 0 {
			t = c.hitFree[n-1]
			c.hitFree = c.hitFree[:n-1]
		} else {
			t = &hitTask{c: c}
			t.run = t.fire
		}
		t.l, t.r, t.addr = l, r, r.Addr
		c.k.After(c.cfg.HitLatency, t.run)
		return
	}
	c.startMiss(r, l != nil)
}

// satisfiable reports whether r can complete against the resident line.
func (c *Cache) satisfiable(l *line, r *Req) bool {
	if c.isROSyncRead(r) || r.Kind == mem.Read {
		return true // any resident state serves a read
	}
	return l.state == LineExclusive
}

// isROSyncRead reports whether r takes the Section 6 uncached
// read-only-synchronization path.
func (c *Cache) isROSyncRead(r *Req) bool {
	return r.Kind == mem.SyncRead && c.cfg.ROSyncBypass
}

// takeReqID returns a fresh transaction id (ids start at 1; 0 means "no
// dedup" for hand-assembled test messages).
func (c *Cache) takeReqID() uint64 {
	c.nextReqID++
	return c.nextReqID
}

// sendReq transmits a request-class message and arms its retry state.
func (c *Cache) sendReq(rs *retryState, dst int, m network.Msg) {
	rs.lastMsg = m
	rs.attempts = 0
	rs.exhausted = false
	rs.deadline = 0
	if c.cfg.RetryTimeout > 0 {
		rs.deadline = c.k.Now() + c.cfg.RetryTimeout
	}
	c.net.Send(c.cfg.ID, dst, m)
}

// startMiss allocates an MSHR and sends the appropriate request.
func (c *Cache) startMiss(r *Req, present bool) {
	c.stats.Misses++
	m := c.newMSHR(r.Addr)
	m.ops = append(m.ops, r)
	c.installMSHR(r.Addr, m)
	home := c.cfg.Home(r.Addr)
	switch {
	case c.isROSyncRead(r) && c.cfg.ROSyncUncached:
		m.sort = fetchSyncRead
		c.stats.SyncRequests++
		c.sendReq(&m.retry, home, SyncRead(r.Addr, c.takeReqID()))
	case c.isROSyncRead(r):
		// Cached-shared Test: protocol-wise a data read, but it does NOT
		// hold a counter unit. A Test can defer on another processor's
		// reserve bit, so counting it would let two processors' reserves
		// wait on each other's spinning Tests — a deadlock the paper's
		// counter (which tracks only unconditionally completing accesses)
		// never creates. The issuing processor is stalled on the Test
		// anyway, so no later synchronization can commit before it.
		m.sort = fetchS
		c.stats.SyncRequests++
		c.sendReq(&m.retry, home, GetS(r.Addr, c.takeReqID()))
	case r.Kind == mem.Read:
		m.sort = fetchS
		m.dataMiss = true
		c.counter++
		c.sendReq(&m.retry, home, GetS(r.Addr, c.takeReqID()))
	default:
		// Writes, RMWs and (non-bypass) synchronization operations all
		// need the line exclusive; synchronization operations are flagged
		// so owners can apply reserve-bit deferral.
		m.sort = fetchX
		m.sync = r.Kind.IsSync()
		if present {
			c.stats.Upgrades++
		}
		if m.sync {
			c.stats.SyncRequests++
		} else {
			m.dataMiss = true
			c.counter++
		}
		c.sendReq(&m.retry, home, GetX(r.Addr, m.sync, c.takeReqID()))
	}
}

// commitOnLine performs r against the resident line and fires callbacks.
func (c *Cache) commitOnLine(l *line, r *Req) {
	var got mem.Value
	switch r.Kind {
	case mem.Read, mem.SyncRead:
		got = l.val
	case mem.Write, mem.SyncWrite:
		l.val = r.Data
		got = r.Data
	case mem.SyncRMW:
		got = l.val
		l.val = r.Data
	}
	// A committing synchronization operation reserves the line when
	// previous accesses (or its own invalidations) are still outstanding.
	// Under the Section 6 refinement, read-only synchronization operations
	// take the uncached-bypass path and never reserve.
	if r.Kind.IsSync() && !c.isROSyncRead(r) && c.cfg.UseReserve && c.counter > 0 {
		if !l.reserved {
			l.reservedAt = c.k.Now()
			c.nReserved++
			c.markSweep(r.Addr)
		}
		l.reserved = true
	}
	if r.OnCommit != nil {
		r.OnCommit(got)
	}
	if r.OnGlobal != nil {
		if ack := c.ackAt(r.Addr); ack != nil && r.Kind.WritesMemory() {
			ack.waiters = append(ack.waiters, r.OnGlobal)
		} else {
			r.OnGlobal()
		}
	}
}

// handle dispatches an incoming protocol message.
func (c *Cache) handle(src int, m network.Msg) {
	if debugTrace != nil {
		debugTrace(c.cfg.ID, src, m)
	}
	switch m.Kind {
	case MsgData, MsgOwnerData:
		c.fill(m.Addr, m.Value, LineShared, false)
	case MsgDataEx:
		c.fill(m.Addr, m.Value, LineExclusive, flag(m, FlagAcksPending))
	case MsgOwnerDataEx:
		c.fill(m.Addr, m.Value, LineExclusive, false)
	case MsgSyncReadReply:
		c.syncReadReply(m)
	case MsgMemAck:
		c.memAck(m.Addr)
	case MsgInv:
		c.invalidate(m.Addr)
	case MsgWBAck:
		c.removeWb(m.Addr)
	case MsgFwdGetS, MsgFwdGetX, MsgFwdSyncRead:
		c.forward(m)
	default:
		panic(fmt.Sprintf("cache %d: unexpected message %s from %d", c.cfg.ID, MsgName(m), src))
	}
}

// fill installs a line and drains the MSHR.
func (c *Cache) fill(addr mem.Addr, val mem.Value, st LineState, acksPending bool) {
	m := c.mshrAt(addr)
	if m == nil {
		panic(fmt.Sprintf("cache %d: fill for %d without MSHR", c.cfg.ID, addr))
	}
	if m.dataMiss {
		// Data read misses and exclusive-transfer write misses complete
		// the counter unit now; a write whose invalidations are pending
		// keeps its unit until the MemAck (the paper's decrement rules).
		if !acksPending {
			c.decCounter()
		}
		m.dataMiss = false
	} else if m.sync && acksPending {
		// A committed synchronization write awaiting invalidation acks
		// counts as an outstanding access until globally performed.
		c.counter++
	}
	if acksPending {
		if c.ackAt(addr) != nil {
			panic(fmt.Sprintf("cache %d: overlapping ack transactions for %d", c.cfg.ID, addr))
		}
		ack := c.newAck()
		ack.counted = true
		c.ensureAddr(addr)
		c.ackTab[addr] = ack
		c.nAcks++
	}
	c.makeRoom()
	if old := c.lineAt(addr); old != nil {
		// Upgrade fill: the stale shared copy is replaced outright (the
		// map-based design overwrote the entry).
		c.removeLine(addr, old)
	}
	l := c.newLine()
	l.state, l.val, l.insertAt = st, val, c.fillSeq
	c.fillSeq++
	c.installLine(addr, l)
	c.drainMSHR(m, l)
}

// drainMSHR commits queued operations in order against the filled line;
// an operation needing more rights than the line grants re-issues an
// upgrade and leaves the rest queued. When all operations complete the
// MSHR retires and deferred forwards are serviced.
func (c *Cache) drainMSHR(m *mshr, l *line) {
	for len(m.ops) > 0 {
		r := m.ops[0]
		if !c.satisfiable(l, r) {
			// Upgrade: reuse the MSHR for a GetX on the same line.
			m.sort = fetchX
			m.sync = r.Kind.IsSync()
			c.stats.Upgrades++
			if m.sync {
				c.stats.SyncRequests++
			} else {
				m.dataMiss = true
				c.counter++
			}
			// A fresh transaction id: the fill answering the original
			// request already consumed the old one at the directory.
			c.sendReq(&m.retry, c.cfg.Home(m.addr), GetX(m.addr, m.sync, c.takeReqID()))
			return
		}
		m.ops = m.ops[1:]
		c.commitOnLine(l, r)
	}
	fwds := m.fwds
	c.removeMSHR(m)
	for i := range fwds {
		c.forward(fwds[i].msg)
	}
	// Release only now: forward() may start new transactions that draw
	// fresh MSHRs from the free list while fwds is still being walked.
	c.releaseMSHR(m)
}

// syncReadReply completes an uncached read-only synchronization read.
func (c *Cache) syncReadReply(msg network.Msg) {
	m := c.mshrAt(msg.Addr)
	if m == nil || m.sort != fetchSyncRead {
		panic(fmt.Sprintf("cache %d: stray SyncReadReply for %d", c.cfg.ID, msg.Addr))
	}
	r := m.ops[0]
	m.ops = m.ops[1:]
	if r.OnCommit != nil {
		r.OnCommit(msg.Value)
	}
	if r.OnGlobal != nil {
		r.OnGlobal()
	}
	rest := m.ops
	fwds := m.fwds
	c.removeMSHR(m)
	// Remaining queued operations re-enter the issue path (they may hit a
	// resident line or start a fresh transaction).
	for _, q := range rest {
		c.Issue(q)
	}
	for i := range fwds {
		c.forward(fwds[i].msg)
	}
	// As in drainMSHR: release only after the loops, because Issue and
	// forward may draw fresh MSHRs whose slices would alias rest/fwds.
	c.releaseMSHR(m)
}

// memAck completes a write's global performance.
func (c *Cache) memAck(addr mem.Addr) {
	ack := c.ackAt(addr)
	if ack == nil {
		panic(fmt.Sprintf("cache %d: stray MemAck for %d", c.cfg.ID, addr))
	}
	c.ackTab[addr] = nil
	c.nAcks--
	if ack.counted {
		c.decCounter()
	}
	for _, fn := range ack.waiters {
		fn()
	}
	c.releaseAck(ack)
}

// invalidate services an incoming invalidation and acknowledges to the
// directory. Reserved lines are exclusive and are never invalidated, so
// no deferral is needed here.
func (c *Cache) invalidate(addr mem.Addr) {
	c.stats.InvsReceived++
	if l := c.lineAt(addr); l != nil {
		if l.state == LineExclusive {
			panic(fmt.Sprintf("cache %d: invalidation for exclusive line %d", c.cfg.ID, addr))
		}
		c.removeLine(addr, l)
	}
	c.net.Send(c.cfg.ID, c.cfg.Home(addr), InvAck(addr))
}

// forward services (or defers) a request forwarded by the directory.
func (c *Cache) forward(m network.Msg) {
	addr := m.Addr
	l := c.lineAt(addr)
	if l == nil {
		if int(addr) < len(c.wbTab) && c.wbTab[addr] != nil {
			// Our writeback crossed this forward: it was addressed to us
			// as the *old* owner, and the directory resolves the blocked
			// request from the PutX data. This check must precede the
			// MSHR check — we may already be re-requesting the same line
			// (a new transaction queued at the directory behind the
			// resolution), and stashing the stale forward there would
			// transfer the line to a requester that is no longer waiting.
			// Channel ordering guarantees the WBAck arrives before any
			// forward aimed at our new ownership, so wbWait here always
			// means the forward is stale.
			return
		}
		if mshr := c.mshrAt(addr); mshr != nil {
			// The directory granted us ownership but the line is still in
			// flight: service after the fill.
			mshr.fwds = append(mshr.fwds, deferredFwd{msg: m, since: c.k.Now()})
			return
		}
		panic(fmt.Sprintf("cache %d: forward %s for absent line %d", c.cfg.ID, MsgName(m), addr))
	}
	if l.state != LineExclusive {
		panic(fmt.Sprintf("cache %d: forward %s for %v line %d", c.cfg.ID, MsgName(m), l.state, addr))
	}

	// Read-only synchronization reads are answered even when reserved
	// (Section 6: they need not stall other processors).
	if m.Kind == MsgFwdSyncRead {
		c.net.Send(c.cfg.ID, int(m.Peer), SyncReadReply(addr, l.val))
		c.net.Send(c.cfg.ID, c.cfg.Home(addr), SyncReadDone(addr))
		return
	}
	if l.pendingLocal > 0 || (l.reserved && c.counter > 0) {
		if l.reserved && c.counter > 0 {
			c.stats.DeferredFwds++
		}
		l.deferred = append(l.deferred, deferredFwd{msg: m, since: c.k.Now()})
		c.nDeferred++
		c.markSweep(addr)
		return
	}
	c.serviceForward(addr, l, m)
}

// serviceForward transfers or downgrades the line.
func (c *Cache) serviceForward(addr mem.Addr, l *line, m network.Msg) {
	switch m.Kind {
	case MsgFwdGetS:
		l.state = LineShared
		if l.reserved {
			l.reserved = false
			c.nReserved--
		}
		c.net.Send(c.cfg.ID, int(m.Peer), OwnerData(addr, l.val))
		c.net.Send(c.cfg.ID, c.cfg.Home(addr), XferDoneShared(addr, l.val))
	case MsgFwdGetX:
		val := l.val
		if l.reserved {
			l.reserved = false
			c.nReserved--
		}
		c.removeLine(addr, l)
		c.net.Send(c.cfg.ID, int(m.Peer), OwnerDataEx(addr, val))
		c.net.Send(c.cfg.ID, c.cfg.Home(addr), XferDoneOwner(addr, int(m.Peer)))
	default:
		panic(fmt.Sprintf("cache %d: serviceForward %s", c.cfg.ID, MsgName(m)))
	}
}

// decCounter decrements the counter; on reaching zero it clears every
// reserve bit and services all deferred forwards (the paper: "all reserve
// bits are reset when the counter reads zero").
func (c *Cache) decCounter() {
	if c.counter <= 0 {
		panic(fmt.Sprintf("cache %d: counter underflow", c.cfg.ID))
	}
	c.counter--
	if c.counter > 0 {
		return
	}
	for _, fn := range c.onCounterZero {
		fn()
	}
	c.onCounterZero = c.onCounterZero[:0]
	if c.nReserved == 0 && c.nDeferred == 0 {
		return
	}
	// Collect deferred work first: servicing can mutate the line table.
	// Only lines that ever set a reserve bit or deferred a forward since
	// the last sweep are on the sweep list (markSweep); every other line
	// would contribute nothing to the scan, so the sorted sweep list
	// visits exactly the same lines, in the same order, as a full scan.
	work := c.scratchWork[:0]
	addrs := append(c.scratchAddrs[:0], c.sweepAddrs...)
	for _, a := range c.sweepAddrs {
		c.inSweep[a] = false
	}
	c.sweepAddrs = c.sweepAddrs[:0]
	slices.Sort(addrs)
	for _, a := range addrs {
		l := c.lineAt(a)
		if l == nil {
			continue
		}
		if l.reserved {
			l.reserved = false
			c.nReserved--
			c.cfg.ReserveHold.Observe(uint64(c.k.Now() - l.reservedAt))
		}
		for _, f := range l.deferred {
			work = append(work, deferredWork{addr: a, msg: f.msg, since: f.since})
		}
		c.nDeferred -= len(l.deferred)
		l.deferred = l.deferred[:0]
	}
	c.scratchWork, c.scratchAddrs = work, addrs
	for _, w := range work {
		c.stats.DeferredCycles += uint64(c.k.Now() - w.since)
		c.cfg.DeferHold.Observe(uint64(c.k.Now() - w.since))
		// Re-enter the forward path: the line may have changed state.
		c.forward(w.msg)
	}
}

// flushDeferred re-drives forwards deferred by an in-flight local hit
// once the line has no pending local operations. Entries blocked by a
// reserve bit simply re-defer.
func (c *Cache) flushDeferred(addr mem.Addr, l *line) {
	if c.lineAt(addr) != l || len(l.deferred) == 0 {
		return
	}
	work := c.scratchWork[:0]
	for _, f := range l.deferred {
		work = append(work, deferredWork{addr: addr, msg: f.msg, since: f.since})
	}
	c.nDeferred -= len(l.deferred)
	l.deferred = l.deferred[:0]
	c.scratchWork = work
	for _, f := range work {
		c.forward(f.msg)
	}
}

// CheckTimeouts drives the retry protocol; the machine polls it once
// per cycle (polling keeps the kernel's event queue free of timers,
// preserving Pending()==0 as part of termination detection). Timed-out
// requests are re-sent verbatim — same transaction id, so the directory
// absorbs the duplicate if the original survived — with exponential
// backoff between attempts. A transaction that hits RetryMax stops
// retrying (ExhaustedLines reports it; if the request was genuinely
// lost the machine's watchdog escalates to a LivenessReport). Iteration
// is in address order for determinism.
func (c *Cache) CheckTimeouts(now sim.Time) {
	if c.cfg.RetryTimeout == 0 || (len(c.mshrList) == 0 && len(c.wbList) == 0) {
		return
	}
	addrs := append(c.scratchAddrs[:0], c.mshrList...)
	slices.Sort(addrs)
	for _, a := range addrs {
		c.retryTick(now, c.cfg.Home(a), &c.mshrTab[a].retry)
	}
	addrs = append(addrs[:0], c.wbList...)
	slices.Sort(addrs)
	for _, a := range addrs {
		c.retryTick(now, c.cfg.Home(a), &c.wbTab[a].retry)
	}
	c.scratchAddrs = addrs
}

// retryTick re-sends one transaction if its deadline passed.
func (c *Cache) retryTick(now sim.Time, dst int, rs *retryState) {
	if rs.deadline == 0 || rs.exhausted || now < rs.deadline {
		return
	}
	rs.attempts++
	if rs.attempts > c.cfg.RetryMax {
		rs.exhausted = true
		c.stats.RetryExhausted++
		return
	}
	c.stats.Retries++
	if c.cfg.OnRetry != nil {
		c.cfg.OnRetry(dst, rs.lastMsg, rs.attempts)
	}
	c.net.Send(c.cfg.ID, dst, rs.lastMsg)
	timeout := min(c.cfg.RetryTimeout<<uint(rs.attempts), 8*c.cfg.RetryTimeout)
	c.cfg.RetryBackoff.Observe(uint64(timeout))
	rs.deadline = now + timeout
}

// NextRetryDeadline returns the earliest armed retry deadline across
// in-flight transactions and writebacks; ok is false when retry is off
// or nothing is armed. The machine's idle-cycle fast-forward must not
// skip past this cycle: CheckTimeouts is polled, not event-scheduled,
// so a skipped deadline would silently delay the resend.
func (c *Cache) NextRetryDeadline() (t sim.Time, ok bool) {
	if c.cfg.RetryTimeout == 0 {
		return 0, false
	}
	consider := func(rs *retryState) {
		if rs.deadline != 0 && !rs.exhausted && (!ok || rs.deadline < t) {
			t, ok = rs.deadline, true
		}
	}
	for _, a := range c.mshrList {
		consider(&c.mshrTab[a].retry)
	}
	for _, a := range c.wbList {
		consider(&c.wbTab[a].retry)
	}
	return t, ok
}

// PendingLines returns the addresses with in-flight transactions
// (MSHRs), sorted — liveness diagnostics.
func (c *Cache) PendingLines() []mem.Addr {
	out := append(make([]mem.Addr, 0, len(c.mshrList)), c.mshrList...)
	slices.Sort(out)
	return out
}

// WritebackLines returns the addresses with outstanding PutX
// writebacks, sorted — liveness diagnostics.
func (c *Cache) WritebackLines() []mem.Addr {
	out := append(make([]mem.Addr, 0, len(c.wbList)), c.wbList...)
	slices.Sort(out)
	return out
}

// ExhaustedLines returns the addresses whose transactions hit RetryMax
// and stopped retrying, sorted.
func (c *Cache) ExhaustedLines() []mem.Addr {
	var out []mem.Addr
	for _, a := range c.mshrList {
		if c.mshrTab[a].retry.exhausted {
			out = append(out, a)
		}
	}
	for _, a := range c.wbList {
		if c.wbTab[a].retry.exhausted {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return out
}

// makeRoom evicts a victim if the cache is at capacity. Reserved lines
// and lines with deferred forwards are never victimized (the paper: a
// reserved line is never flushed); if no line is eligible the cache
// overflows temporarily.
func (c *Cache) makeRoom() {
	if c.cfg.Capacity <= 0 || len(c.lineList) < c.cfg.Capacity {
		return
	}
	var victim mem.Addr
	var vl *line
	for _, a := range c.lineList {
		l := c.lineAt(a)
		if l.reserved || len(l.deferred) > 0 || l.pendingLocal > 0 {
			continue
		}
		if c.ackAt(a) != nil {
			// The directory transaction for this line is still collecting
			// invalidation acks; writing it back now would race that
			// transaction.
			continue
		}
		if vl == nil || l.insertAt < vl.insertAt {
			victim, vl = a, l
		}
	}
	if vl == nil {
		c.stats.Overflows++
		return
	}
	c.stats.Evictions++
	if vl.state == LineExclusive {
		c.stats.Writebacks++
		w := c.newWb()
		c.installWb(victim, w)
		c.sendReq(&w.retry, c.cfg.Home(victim), PutX(victim, vl.val, c.takeReqID()))
	}
	c.removeLine(victim, vl)
}
