package cache

import (
	"fmt"
	"slices"

	"weakorder/internal/bitset"
	"weakorder/internal/mem"
	"weakorder/internal/metrics"
	"weakorder/internal/network"
	"weakorder/internal/sim"
)

// DirState is the directory's view of one line.
type DirState uint8

// Directory line states.
const (
	// DirUncached: memory holds the only copy.
	DirUncached DirState = iota
	// DirShared: one or more caches hold read-only copies; memory is
	// up to date.
	DirShared
	// DirExclusive: exactly one cache owns a (potentially dirty) copy.
	DirExclusive
)

// String names the state.
func (s DirState) String() string {
	switch s {
	case DirUncached:
		return "Uncached"
	case DirShared:
		return "Shared"
	case DirExclusive:
		return "Exclusive"
	default:
		return fmt.Sprintf("DirState(%d)", uint8(s))
	}
}

// DirMode selects how a directory tracks sharers. Full-map is exact and
// is the correctness reference; the scalable modes keep less state per
// line and compensate by over-invalidating, which the protocol absorbs
// because caches acknowledge invalidations for lines they do not hold.
type DirMode uint8

const (
	// DirFullMap keeps one presence bit per processor (exact sharers):
	// a coarse vector whose groups hold one processor each.
	DirFullMap DirMode = iota
	// DirLimitedPtr keeps up to Pointers sharer identities (Dir_i); on
	// pointer overflow the line degrades to broadcast — an exclusive
	// request invalidates every processor except the requester.
	DirLimitedPtr
	// DirCoarseVector keeps one presence bit per group of Coarseness
	// processors; invalidations go to every processor in every marked
	// group (except the requester).
	DirCoarseVector
)

// ParseDirMode parses the CLI/config spelling of a directory mode; the
// empty string means the default full-map.
func ParseDirMode(s string) (DirMode, error) {
	switch s {
	case "", "full":
		return DirFullMap, nil
	case "limited":
		return DirLimitedPtr, nil
	case "coarse":
		return DirCoarseVector, nil
	default:
		return DirFullMap, fmt.Errorf("cache: unknown directory mode %q (want full, limited, or coarse)", s)
	}
}

// String names the mode using the CLI/config spelling.
func (m DirMode) String() string {
	switch m {
	case DirFullMap:
		return "full"
	case DirLimitedPtr:
		return "limited"
	case DirCoarseVector:
		return "coarse"
	default:
		return fmt.Sprintf("DirMode(%d)", uint8(m))
	}
}

// pendingKind describes why a directory line is blocked.
type pendingKind uint8

const (
	pendNone        pendingKind = iota
	pendAcks                    // awaiting invalidation acks, then MemAck to requester
	pendFwdS                    // awaiting owner response to FwdGetS
	pendFwdX                    // awaiting owner response to FwdGetX
	pendFwdSyncRead             // awaiting owner response to FwdSyncRead
)

var pendingNames = [...]string{
	pendNone:        "none",
	pendAcks:        "acks",
	pendFwdS:        "fwd-gets",
	pendFwdX:        "fwd-getx",
	pendFwdSyncRead: "fwd-syncread",
}

type dirLine struct {
	addr  mem.Addr
	state DirState
	// sharers is the presence bit-vector, one bit per processor group
	// (groups of one under DirFullMap); nil under DirLimitedPtr.
	sharers *bitset.Set
	// ptrs holds the sharer pointers under DirLimitedPtr, sorted
	// ascending; bcast marks pointer overflow (every processor is a
	// potential sharer until the next clear).
	ptrs  []int32
	bcast bool
	owner int
	val   mem.Value

	pending      pendingKind
	pendingSince sim.Time // cycle the pending transaction started (telemetry only)
	acksLeft     int
	requester    int         // cache awaiting completion of the pending transaction
	queue        []queuedReq // requests waiting for the line to unblock

	// served records every (source, transaction id) accepted on this
	// line, making request handling idempotent: a duplicate — whether
	// injected by a faulty interconnect or a spurious retry of a request
	// that was merely queued — is absorbed on arrival. An exact set, not
	// a per-source high-water mark: fault-induced reordering can deliver
	// an older transaction after a newer one (a delayed PutX behind the
	// evictor's next GetS), and that older first arrival must still be
	// served.
	served map[servedKey]bool
}

// servedKey identifies one accepted request-class transaction.
type servedKey struct {
	src int
	id  uint64
}

type queuedReq struct {
	src int
	m   network.Msg
}

// DirConfig parameterizes a directory/memory module.
type DirConfig struct {
	// ID is the module's network endpoint.
	ID int
	// NumProcs is the number of caches (endpoints 0..NumProcs-1).
	NumProcs int
	// Latency is the memory/directory access latency applied to replies.
	Latency sim.Time
	// Mode selects the sharer-tracking scheme (default DirFullMap).
	Mode DirMode
	// Pointers is the sharer-pointer count for DirLimitedPtr (default 4).
	Pointers int
	// Coarseness is the processors-per-group size for DirCoarseVector
	// (default 8); DirFullMap uses groups of one.
	Coarseness int

	// Telemetry (optional; see internal/metrics). Never alters protocol
	// behavior.

	// QueueDepth observes the per-line queue length after each enqueue.
	QueueDepth *metrics.Histogram
	// Track receives each blocked-line transaction as a timeline span
	// ("pend:<kind> @<addr>").
	Track *metrics.Track
}

// dirLineChunk sizes the directory-line arena chunks.
const dirLineChunk = 16

// replyTask is one pooled delayed reply: the kernel callback closure is
// allocated once per task and reused across replies.
type replyTask struct {
	d   *Directory
	dst int
	m   network.Msg
	run func()
}

func (t *replyTask) fire() {
	d, dst, m := t.d, t.dst, t.m
	d.replyFree = append(d.replyFree, t)
	d.net.Send(d.cfg.ID, dst, m)
}

// Directory is one memory module and its directory. It serializes
// transactions per line: a request arriving while the line has a pending
// transaction queues until the transaction completes.
type Directory struct {
	k   *sim.Kernel
	net network.Network
	cfg DirConfig
	// lineIdx is the dense addr → arena-index+1 table (0 = no line).
	// Program addresses are allocated densely from zero by
	// program.Builder, so the table stays small and lookup is a slice
	// index instead of a map probe on every message.
	lineIdx []int32
	// busyLines counts lines with a pending transaction, making Idle —
	// polled every cycle by the machine's termination check — O(1)
	// instead of a scan over all lines.
	busyLines int
	// noDedup disables the per-line served-transaction set for the
	// current run (see Reset).
	noDedup bool
	stats   DirStats
	// reqCounts densely counts processed requests by message kind;
	// Stats() materializes the name-keyed map from it on demand, keeping
	// the per-message path allocation- and hash-free.
	reqCounts [MsgOwnerDataEx + 1]uint64

	// Directory-line arena (rewound wholesale by Reset): slots retain
	// their sharers bitset, queue capacity, and served map across runs.
	// Sharers bitsets are sized for cfg.NumProcs, so a pooled directory
	// must be reused only for machines with the same processor count.
	lineChunks [][]dirLine
	lineN      int

	replyFree []*replyTask
}

// DirStats counts directory activity.
type DirStats struct {
	// Requests counts processed requests by message name.
	Requests map[string]uint64
	// Forwards counts requests forwarded to owners.
	Forwards uint64
	// Invalidations counts invalidation messages sent.
	Invalidations uint64
	// QueuedMax is the peak per-line queue length observed.
	QueuedMax int
	// Duplicates counts absorbed duplicate requests (same source and
	// transaction id seen before): injected duplicates plus retries of
	// requests that had in fact survived.
	Duplicates uint64
	// PtrOverflows counts limited-pointer overflow events (a line
	// degrading to broadcast); always 0 outside DirLimitedPtr.
	PtrOverflows uint64
}

// NewDirectory constructs a directory attached to the network at cfg.ID.
func NewDirectory(k *sim.Kernel, net network.Network, cfg DirConfig) *Directory {
	if cfg.Latency == 0 {
		cfg.Latency = 1
	}
	if cfg.Pointers <= 0 {
		cfg.Pointers = 4
	}
	if cfg.Mode == DirFullMap {
		cfg.Coarseness = 1
	} else if cfg.Coarseness <= 0 {
		cfg.Coarseness = 8
	}
	d := &Directory{
		k:   k,
		net: net,
		cfg: cfg,
	}
	d.Reset(false)
	net.Attach(cfg.ID, d.handle)
	return d
}

// groups returns the presence-vector width.
func (d *Directory) groups() int {
	return (d.cfg.NumProcs + d.cfg.Coarseness - 1) / d.cfg.Coarseness
}

// Reset rewinds the directory for a fresh run on the same wiring: all
// line state and statistics are cleared while the arena, map buckets,
// and pooled reply tasks are retained. The caller guarantees the kernel
// is drained (no replies in flight) and that the processor count is
// unchanged (arena bitsets are sized for it).
//
// noDedup disables the per-line served-transaction set for the run.
// Duplicate request-class messages only exist when the interconnect is
// faulted or cache retries are armed; a run with neither can skip the
// bookkeeping, keeping the steady-state request path free of map
// inserts (and thus allocation-free).
func (d *Directory) Reset(noDedup bool) {
	clear(d.lineIdx)
	d.lineN = 0
	d.busyLines = 0
	d.stats = DirStats{}
	clear(d.reqCounts[:])
	d.noDedup = noDedup
}

// lookup returns the line for a, or nil when the directory has never
// seen the address.
func (d *Directory) lookup(a mem.Addr) *dirLine {
	if int(a) >= len(d.lineIdx) {
		return nil
	}
	idx := d.lineIdx[a]
	if idx == 0 {
		return nil
	}
	i := int(idx - 1)
	return &d.lineChunks[i/dirLineChunk][i%dirLineChunk]
}

func (d *Directory) line(a mem.Addr) *dirLine {
	if l := d.lookup(a); l != nil {
		return l
	}
	for int(a) >= len(d.lineIdx) {
		d.lineIdx = append(d.lineIdx, 0)
	}
	l := d.newLine()
	l.addr = a
	d.lineIdx[a] = int32(d.lineN) // index+1; newLine already advanced lineN
	return l
}

// newLine hands out a fresh dirLine from the arena, recycling the
// slot's sharers bitset, pointer slice, queue capacity, and served map.
func (d *Directory) newLine() *dirLine {
	ci, li := d.lineN/dirLineChunk, d.lineN%dirLineChunk
	if ci == len(d.lineChunks) {
		d.lineChunks = append(d.lineChunks, make([]dirLine, dirLineChunk))
	}
	d.lineN++
	l := &d.lineChunks[ci][li]
	sharers, ptrs, queue, served := l.sharers, l.ptrs[:0], l.queue[:0], l.served
	switch {
	case d.cfg.Mode == DirLimitedPtr:
		sharers = nil
		if ptrs == nil {
			ptrs = make([]int32, 0, d.cfg.Pointers)
		}
	case sharers == nil:
		sharers = bitset.New(d.groups())
	default:
		sharers.Clear()
	}
	if served != nil {
		clear(served)
	}
	*l = dirLine{state: DirUncached, sharers: sharers, ptrs: ptrs, owner: -1, queue: queue, served: served}
	return l
}

// ---------------------------------------------------------------------------
// Sharer tracking. All writes to a line's sharer set go through these
// helpers so the three modes stay interchangeable: full-map (the coarse
// vector with groups of one) is exact, limited-pointer and coarse-vector
// with larger groups are conservative over-approximations
// (they may list processors that do not hold the line, never the
// reverse), which keeps invalidation complete in every mode.

// addSharer records src as a (potential) sharer.
func (d *Directory) addSharer(l *dirLine, src int) {
	switch d.cfg.Mode {
	case DirLimitedPtr:
		if l.bcast {
			return
		}
		p := int32(src)
		i, found := slices.BinarySearch(l.ptrs, p)
		if found {
			return
		}
		if len(l.ptrs) < d.cfg.Pointers {
			l.ptrs = slices.Insert(l.ptrs, i, p)
			return
		}
		// Pointer overflow: degrade to broadcast.
		l.ptrs = l.ptrs[:0]
		l.bcast = true
		d.stats.PtrOverflows++
	default:
		l.sharers.Add(src / d.cfg.Coarseness)
	}
}

// clearSharers empties the sharer set.
func (d *Directory) clearSharers(l *dirLine) {
	if d.cfg.Mode == DirLimitedPtr {
		l.ptrs = l.ptrs[:0]
		l.bcast = false
		return
	}
	l.sharers.Clear()
}

// countInvTargets returns how many invalidations an exclusive request
// from exclude must trigger: the number of potential sharers other than
// exclude. Zero means the requester is (at worst) the sole sharer and a
// silent upgrade is safe in every mode.
func (d *Directory) countInvTargets(l *dirLine, exclude int) int {
	n := 0
	d.forEachInvTarget(l, exclude, func(int) {
		n++
	})
	return n
}

// forEachInvTarget calls fn for each potential sharer other than
// exclude, in ascending processor order.
func (d *Directory) forEachInvTarget(l *dirLine, exclude int, fn func(p int)) {
	switch d.cfg.Mode {
	case DirLimitedPtr:
		if l.bcast {
			for p := 0; p < d.cfg.NumProcs; p++ {
				if p != exclude {
					fn(p)
				}
			}
			return
		}
		for _, p := range l.ptrs {
			if int(p) != exclude {
				fn(int(p))
			}
		}
	default:
		l.sharers.ForEach(func(g int) bool {
			lo, hi := g*d.cfg.Coarseness, min((g+1)*d.cfg.Coarseness, d.cfg.NumProcs)
			for p := lo; p < hi; p++ {
				if p != exclude {
					fn(p)
				}
			}
			return true
		})
	}
}

// sharerMembers lists the potential sharers (introspection only).
func (d *Directory) sharerMembers(l *dirLine) []int {
	var out []int
	d.forEachInvTarget(l, -1, func(p int) {
		out = append(out, p)
	})
	return out
}

// SetInit installs the initial memory value of an address.
func (d *Directory) SetInit(a mem.Addr, v mem.Value) { d.line(a).val = v }

// MemValue returns the directory's (memory's) current value for an
// address. When the line is exclusive in some cache this may be stale;
// use the machine's final-state extraction, which consults owners.
func (d *Directory) MemValue(a mem.Addr) mem.Value {
	if l := d.lookup(a); l != nil {
		return l.val
	}
	return 0
}

// State exposes a line's directory state (for tests and invariants).
// The sharer list is the set of *potential* sharers: exact under
// full-map, an over-approximation under the scalable modes.
func (d *Directory) State(a mem.Addr) (DirState, int, []int) {
	l := d.lookup(a)
	if l == nil {
		return DirUncached, -1, nil
	}
	return l.state, l.owner, d.sharerMembers(l)
}

// Idle reports whether no line has a pending transaction or queued
// requests (used for drain/termination detection). Queued requests only
// exist behind a pending transaction, so the busy-line counter covers
// both — this is polled every machine cycle and must stay O(1).
func (d *Directory) Idle() bool { return d.busyLines == 0 }

// PendingLines returns the addresses of blocked lines, for deadlock
// diagnostics.
func (d *Directory) PendingLines() []mem.Addr {
	var out []mem.Addr
	for i := 0; i < d.lineN; i++ {
		l := &d.lineChunks[i/dirLineChunk][i%dirLineChunk]
		if l.pending != pendNone || len(l.queue) > 0 {
			out = append(out, l.addr)
		}
	}
	slices.Sort(out)
	return out
}

// Stats returns directory statistics. The Requests map is materialized
// per call; callers own the returned map.
func (d *Directory) Stats() DirStats {
	s := d.stats
	s.Requests = make(map[string]uint64)
	for k, n := range d.reqCounts {
		if n > 0 {
			s.Requests[MsgName(network.Msg{Kind: network.MsgKind(k)})] = n
		}
	}
	return s
}

// QueueDepth returns the number of requests queued behind a's pending
// transaction (0 for an idle or unknown line) — liveness diagnostics.
func (d *Directory) QueueDepth(a mem.Addr) int {
	if l := d.lookup(a); l != nil {
		return len(l.queue)
	}
	return 0
}

// handle dispatches an incoming message.
func (d *Directory) handle(src int, m network.Msg) {
	if debugTrace != nil {
		debugTrace(d.cfg.ID, src, m)
	}
	if int(m.Kind) < len(d.reqCounts) {
		d.reqCounts[m.Kind]++
	}
	switch m.Kind {
	case MsgGetS, MsgGetX, MsgSyncRead:
		if d.duplicate(m.Addr, src, m.ReqID) {
			return
		}
		d.request(src, m.Addr, m)
	case MsgPutX:
		if d.duplicate(m.Addr, src, m.ReqID) {
			return
		}
		d.putX(src, m)
	case MsgInvAck:
		d.invAck(src, m)
	case MsgXferDone:
		d.xferDone(src, m)
	case MsgSyncReadDone:
		d.syncReadDone(src, m)
	default:
		panic(fmt.Sprintf("directory %d: unexpected message %s from %d", d.cfg.ID, MsgName(m), src))
	}
}

// duplicate absorbs re-deliveries of an already-accepted request:
// true means the message must be ignored. First arrivals are recorded
// (whether processed immediately or queued), so duplicates of queued
// requests are absorbed too. Ignoring a duplicate is always safe
// because replies travel unfaulted: the single accepted copy's reply
// reaches the requester.
func (d *Directory) duplicate(a mem.Addr, src int, id uint64) bool {
	if id == 0 || d.noDedup {
		return false // hand-assembled test message or dedup disabled
	}
	l := d.line(a)
	k := servedKey{src: src, id: id}
	if l.served[k] {
		d.stats.Duplicates++
		return true
	}
	if l.served == nil {
		l.served = make(map[servedKey]bool)
	}
	l.served[k] = true
	return false
}

// request processes or queues a GetS/GetX/SyncRead.
func (d *Directory) request(src int, a mem.Addr, m network.Msg) {
	l := d.line(a)
	if l.pending != pendNone {
		l.queue = append(l.queue, queuedReq{src: src, m: m})
		if len(l.queue) > d.stats.QueuedMax {
			d.stats.QueuedMax = len(l.queue)
		}
		d.cfg.QueueDepth.Observe(uint64(len(l.queue)))
		return
	}
	d.process(src, a, l, m)
	if l.pending != pendNone {
		l.pendingSince = d.k.Now()
		d.busyLines++
	}
}

// process handles a request on an unblocked line.
func (d *Directory) process(src int, a mem.Addr, l *dirLine, m network.Msg) {
	switch m.Kind {
	case MsgGetS:
		switch l.state {
		case DirUncached, DirShared:
			l.state = DirShared
			d.addSharer(l, src)
			d.reply(src, Data(a, l.val))
		case DirExclusive:
			d.stats.Forwards++
			l.pending = pendFwdS
			l.requester = src
			d.reply(l.owner, FwdGetS(a, src))
		}
	case MsgGetX:
		switch l.state {
		case DirUncached:
			l.state = DirExclusive
			l.owner = src
			d.reply(src, DataEx(a, l.val, false))
		case DirShared:
			others := d.countInvTargets(l, src)
			if others == 0 {
				// Requester is (at worst) the only sharer: silent upgrade.
				d.clearSharers(l)
				l.state = DirExclusive
				l.owner = src
				d.reply(src, DataEx(a, l.val, false))
				return
			}
			// Forward the line to the requester in parallel with the
			// invalidations (the paper's protocol); collect acks here and
			// send the final MemAck when all arrive. Under limited-pointer
			// overflow or coarse grouping the targets over-approximate the
			// true sharers; the extras acknowledge an invalidation for a
			// line they do not hold, so the ack count still closes.
			d.reply(src, DataEx(a, l.val, true))
			l.pending = pendAcks
			l.acksLeft = others
			l.requester = src
			d.forEachInvTarget(l, src, func(p int) {
				d.stats.Invalidations++
				d.reply(p, Inv(a))
			})
			d.clearSharers(l)
			l.state = DirExclusive
			l.owner = src
		case DirExclusive:
			// l.owner == src is legal under request reordering: the
			// owner's PutX is still in flight (dropped or delayed) and
			// its *next* GetX for the line overtook it. The normal
			// forward path handles it — the cache drops the forward as
			// stale (its writeback is pending), and the eventual PutX
			// crosses the pendFwdX and resolves the transaction from the
			// written-back data (see putX).
			d.stats.Forwards++
			l.pending = pendFwdX
			l.requester = src
			d.reply(l.owner, FwdGetX(a, src, flag(m, FlagSync)))
		}
	case MsgSyncRead:
		switch l.state {
		case DirUncached, DirShared:
			// Memory is current: answer directly, no state change, no
			// cached copy for the reader.
			d.reply(src, SyncReadReply(a, l.val))
		case DirExclusive:
			d.stats.Forwards++
			l.pending = pendFwdSyncRead
			l.requester = src
			d.reply(l.owner, FwdSyncRead(a, src))
		}
	default:
		panic(fmt.Sprintf("directory %d: cannot process %s", d.cfg.ID, MsgName(m)))
	}
}

// putX handles a writeback. A PutX crossing a forwarded request resolves
// that transaction from memory: the (former) owner no longer has the line
// and will drop the forward.
func (d *Directory) putX(src int, msg network.Msg) {
	a := msg.Addr
	l := d.line(a)
	switch {
	case l.pending == pendNone:
		if l.state != DirExclusive || l.owner != src {
			panic(fmt.Sprintf("directory %d: unexpected PutX from %d for %d (state %v owner %d)",
				d.cfg.ID, src, a, l.state, l.owner))
		}
		l.val = msg.Value
		l.state = DirUncached
		l.owner = -1
		d.reply(src, WBAck(a))
	case (l.pending == pendFwdS || l.pending == pendFwdX || l.pending == pendFwdSyncRead) && l.owner == src:
		// The writeback crossed our forward. Satisfy the blocked request
		// from the written-back data.
		l.val = msg.Value
		req := l.requester
		switch l.pending {
		case pendFwdS:
			l.state = DirShared
			l.owner = -1
			d.clearSharers(l)
			d.addSharer(l, req)
			d.reply(req, Data(a, l.val))
		case pendFwdX:
			l.state = DirExclusive
			l.owner = req
			d.reply(req, DataEx(a, l.val, false))
		case pendFwdSyncRead:
			l.state = DirUncached
			l.owner = -1
			d.reply(req, SyncReadReply(a, l.val))
		}
		d.reply(src, WBAck(a))
		d.unblock(a, l)
	default:
		panic(fmt.Sprintf("directory %d: PutX from %d for %d during %v (owner %d)",
			d.cfg.ID, src, a, l.pending, l.owner))
	}
}

// invAck collects one invalidation acknowledgement.
func (d *Directory) invAck(src int, msg network.Msg) {
	l := d.line(msg.Addr)
	if l.pending != pendAcks || l.acksLeft <= 0 {
		panic(fmt.Sprintf("directory %d: stray InvAck from %d for %d", d.cfg.ID, src, msg.Addr))
	}
	l.acksLeft--
	if l.acksLeft == 0 {
		d.reply(l.requester, MemAck(msg.Addr))
		d.unblock(msg.Addr, l)
	}
}

// xferDone completes a forwarded GetS/GetX.
func (d *Directory) xferDone(src int, msg network.Msg) {
	l := d.line(msg.Addr)
	switch l.pending {
	case pendFwdS:
		if !flag(msg, FlagShared) {
			panic(fmt.Sprintf("directory %d: FwdGetS completed without Shared flag for %d", d.cfg.ID, msg.Addr))
		}
		l.val = msg.Value
		l.state = DirShared
		d.clearSharers(l)
		d.addSharer(l, src)         // previous owner keeps a shared copy
		d.addSharer(l, l.requester) // requester received one
		l.owner = -1
	case pendFwdX:
		l.state = DirExclusive
		l.owner = int(msg.Peer)
	default:
		panic(fmt.Sprintf("directory %d: XferDone for %d with pending=%v", d.cfg.ID, msg.Addr, l.pending))
	}
	d.unblock(msg.Addr, l)
}

// syncReadDone completes a forwarded MsgSyncRead.
func (d *Directory) syncReadDone(src int, msg network.Msg) {
	l := d.line(msg.Addr)
	if l.pending != pendFwdSyncRead {
		panic(fmt.Sprintf("directory %d: SyncReadDone for %d with pending=%v", d.cfg.ID, msg.Addr, l.pending))
	}
	d.unblock(msg.Addr, l)
}

// unblock clears the pending transaction and processes queued requests
// until the line blocks again or the queue drains.
func (d *Directory) unblock(a mem.Addr, l *dirLine) {
	if d.cfg.Track != nil {
		d.cfg.Track.Span(fmt.Sprintf("pend:%s @%d", pendingNames[l.pending], a),
			l.pendingSince, d.k.Now())
	}
	l.pending = pendNone
	l.acksLeft = 0
	l.requester = -1
	for len(l.queue) > 0 && l.pending == pendNone {
		q := l.queue[0]
		l.queue = l.queue[1:]
		d.process(q.src, a, l, q.m)
	}
	if l.pending != pendNone {
		l.pendingSince = d.k.Now()
	} else {
		d.busyLines--
	}
}

// reply sends a message after the configured memory latency, via a
// pooled task so steady-state replies schedule zero new closures.
func (d *Directory) reply(dst int, m network.Msg) {
	var t *replyTask
	if n := len(d.replyFree); n > 0 {
		t = d.replyFree[n-1]
		d.replyFree = d.replyFree[:n-1]
	} else {
		t = &replyTask{d: d}
		t.run = t.fire
	}
	t.dst, t.m = dst, m
	d.k.After(d.cfg.Latency, t.run)
}
