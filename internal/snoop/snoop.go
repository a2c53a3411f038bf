// Package snoop implements a snoopy-bus MSI invalidation protocol — the
// coherence substrate of the paper's Figure 1 row "shared-bus systems
// with caches" and the protocol family of the Rudolph & Segall work the
// paper cites. It is an alternative to the directory protocol in package
// cache: one shared bus serializes transactions globally; every cache
// observes every transaction in the same order; memory responds when no
// cache owns the line.
//
// Transactions are atomic with respect to one another (the bus grants
// one at a time), so a write both commits and is globally performed when
// its transaction completes — there is no separate invalidation-
// acknowledgement phase. The Section 5.3 reserve-bit mechanism is still
// meaningful: a synchronization operation can commit while the
// processor's *earlier* writes are still queued for the bus, and a
// reserved line's owner then responds to other processors'
// synchronization transactions with a bus retry (the paper's
// negative-acknowledgement option) until its counter reads zero.
//
// The snoopy machine plugs into the same processor model (cpu.MemPort).
package snoop

import (
	"fmt"
	"sort"

	"weakorder/internal/cache"
	"weakorder/internal/mem"
	"weakorder/internal/sim"
)

// LineState is a snooping cache's view of one line (MSI).
type LineState uint8

// Line states.
const (
	LineInvalid LineState = iota
	LineShared
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

// txKind is a bus transaction type.
type txKind uint8

const (
	// busRd requests a shared copy.
	busRd txKind = iota
	// busRdX requests an exclusive copy (write or synchronization).
	busRdX
	// busUpgr upgrades a shared copy to exclusive without a data reply.
	busUpgr
)

func (k txKind) String() string {
	switch k {
	case busRd:
		return "BusRd"
	case busRdX:
		return "BusRdX"
	case busUpgr:
		return "BusUpgr"
	default:
		return fmt.Sprintf("txKind(%d)", uint8(k))
	}
}

// tx is one bus transaction.
type tx struct {
	kind      txKind
	addr      mem.Addr
	requester int
	sync      bool
	enq       sim.Time
}

// Config parameterizes one snooping cache.
type Config struct {
	// HitLatency is the cycles from issue to commit on a hit (>= 1).
	HitLatency sim.Time
	// Capacity bounds resident lines (0 = unbounded); FIFO victims,
	// skipping reserved lines.
	Capacity int
	// UseReserve enables the Section 5.3 reserve bits with bus retries.
	UseReserve bool
	// ROSyncBypass treats read-only synchronization operations as reads
	// (BusRd, shared copies) — the Section 6 refinement.
	ROSyncBypass bool
}

// BusConfig parameterizes the shared bus and memory.
type BusConfig struct {
	// TransferLatency is one transaction's bus occupancy (>= 1).
	TransferLatency sim.Time
	// MemLatency is added when memory (not a cache) supplies the data.
	MemLatency sim.Time
}

// retryDelay is the re-arbitration delay after a retried (NACKed)
// transaction.
const retryDelay sim.Time = 5

// Stats counts bus activity.
type Stats struct {
	Transactions  uint64
	Retries       uint64
	MemSupplied   uint64 // data supplied by memory
	CacheSupplied uint64 // data supplied by an owning cache
	MaxQueue      int
}

// Bus is the shared bus plus memory: the single serialization point.
type Bus struct {
	k      *sim.Kernel
	cfg    BusConfig
	caches []*Cache
	memory map[mem.Addr]mem.Value
	queue  []*tx
	busy   bool
	stats  Stats
}

// NewBus constructs the bus/memory complex.
func NewBus(k *sim.Kernel, cfg BusConfig) *Bus {
	if cfg.TransferLatency == 0 {
		cfg.TransferLatency = 1
	}
	if cfg.MemLatency == 0 {
		cfg.MemLatency = 1
	}
	return &Bus{k: k, cfg: cfg, memory: make(map[mem.Addr]mem.Value)}
}

// SetInit installs an initial memory value.
func (b *Bus) SetInit(a mem.Addr, v mem.Value) { b.memory[a] = v }

// MemValue reads memory (may be stale for lines owned by a cache).
func (b *Bus) MemValue(a mem.Addr) mem.Value { return b.memory[a] }

// Stats returns bus statistics.
func (b *Bus) Stats() Stats { return b.stats }

// Idle reports whether no transaction is queued or in flight.
func (b *Bus) Idle() bool { return !b.busy && len(b.queue) == 0 }

// attach registers a cache (called by NewCache).
func (b *Bus) attach(c *Cache) int {
	b.caches = append(b.caches, c)
	return len(b.caches) - 1
}

// request enqueues a transaction and starts arbitration.
func (b *Bus) request(t *tx) {
	t.enq = b.k.Now()
	b.queue = append(b.queue, t)
	if len(b.queue) > b.stats.MaxQueue {
		b.stats.MaxQueue = len(b.queue)
	}
	if !b.busy {
		b.grant()
	}
}

// grant runs the head transaction after the transfer latency. The bus is
// held through the transaction's data phase (a non-split, atomic bus):
// the next transaction cannot begin until the current one's fill has
// landed, so two transactions can never observe half-transferred
// ownership.
func (b *Bus) grant() {
	if len(b.queue) == 0 {
		b.busy = false
		return
	}
	b.busy = true
	head := b.queue[0]
	b.queue = b.queue[1:]
	b.k.After(b.cfg.TransferLatency, func() {
		extra := b.execute(head)
		b.k.After(extra, b.grant)
	})
}

// execute performs one transaction atomically: every cache snoops it in
// the same instant (the bus broadcast), then the requester is answered.
// The returned duration is the data phase the bus stays held for.
func (b *Bus) execute(t *tx) sim.Time {
	b.stats.Transactions++
	req := b.caches[t.requester]

	// A transaction targeting a line another cache holds reserved is
	// retried (the paper's NACK option): a reserved line never leaves its
	// owner, nor downgrades, until the owner's counter reads zero. The
	// owner's own outstanding transactions are never retried (its lines
	// cannot be reserved at another cache while it owns them), so the
	// counter always drains and retries terminate.
	for i, c := range b.caches {
		if i == t.requester {
			continue
		}
		if c.holdsReserved(t.addr) {
			b.stats.Retries++
			b.k.After(retryDelay, func() { b.request(t) })
			return 0
		}
	}

	switch t.kind {
	case busRd:
		var supplied *mem.Value
		for i, c := range b.caches {
			if i == t.requester {
				continue
			}
			if v, had := c.snoopRd(t.addr); had {
				supplied = &v
			}
		}
		val := b.memory[t.addr]
		lat := b.cfg.MemLatency
		if supplied != nil {
			val = *supplied
			b.memory[t.addr] = val // owner flushes on downgrade
			lat = 0
			b.stats.CacheSupplied++
		} else {
			b.stats.MemSupplied++
		}
		b.k.After(lat, func() { req.fillShared(t.addr, val) })
		return lat
	case busRdX, busUpgr:
		var supplied *mem.Value
		for i, c := range b.caches {
			if i == t.requester {
				continue
			}
			if v, had := c.snoopRdX(t.addr); had {
				supplied = &v
			}
		}
		val := b.memory[t.addr]
		lat := b.cfg.MemLatency
		if supplied != nil {
			val = *supplied
			lat = 0
			b.stats.CacheSupplied++
		} else if t.kind == busUpgr {
			// The upgrader normally still has the data; if a racing BusRdX
			// invalidated its copy, the memory value (kept current by MSI
			// snoop flushes and writebacks) serves as the fallback.
			lat = 0
		} else {
			b.stats.MemSupplied++
		}
		if t.kind == busUpgr {
			v := val
			b.k.After(lat, func() { req.upgraded(t.addr, v) })
		} else {
			b.k.After(lat, func() { req.fillExclusive(t.addr, val) })
		}
		return lat
	}
	return 0
}

// writeBack flushes a dirty line to memory (eviction).
func (b *Bus) writeBack(a mem.Addr, v mem.Value) { b.memory[a] = v }

// ---------------------------------------------------------------------------

type line struct {
	state    LineState
	val      mem.Value
	reserved bool
	insertAt uint64
}

type pendingOp struct {
	req *cache.Req
}

type lineMiss struct {
	ops     []*cache.Req
	upgrade bool
	sync    bool
	counted bool
}

// Cache is one snooping cache; it implements cpu.MemPort.
type Cache struct {
	k       *sim.Kernel
	bus     *Bus
	id      int
	cfg     Config
	lines   map[mem.Addr]*line
	misses  map[mem.Addr]*lineMiss
	counter int
	fillSeq uint64
	stats   CacheStats
}

// CacheStats counts cache activity.
type CacheStats struct {
	Hits     uint64
	Misses   uint64
	Upgrades uint64
	Evicted  uint64
}

// NewCache constructs a snooping cache on the bus.
func NewCache(k *sim.Kernel, bus *Bus, cfg Config) *Cache {
	if cfg.HitLatency == 0 {
		cfg.HitLatency = 1
	}
	c := &Cache{
		k:      k,
		bus:    bus,
		cfg:    cfg,
		lines:  make(map[mem.Addr]*line),
		misses: make(map[mem.Addr]*lineMiss),
	}
	c.id = bus.attach(c)
	return c
}

// Counter implements cpu.MemPort: outstanding data transactions (bus
// transactions are globally performed at completion, so no ack phase).
func (c *Cache) Counter() int { return c.counter }

// Busy implements cpu.MemPort.
func (c *Cache) Busy() bool { return len(c.misses) > 0 }

// Stats returns cache statistics.
func (c *Cache) Stats() CacheStats { return c.stats }

// Snoop (the machine's final-state probe) returns the value and whether
// the line is exclusively held.
func (c *Cache) Snoop(a mem.Addr) (mem.Value, bool) {
	if l, ok := c.lines[a]; ok && l.state == LineExclusive {
		return l.val, true
	}
	return 0, false
}

// LineInfo exposes state and reserve bit for tests.
func (c *Cache) LineInfo(a mem.Addr) (LineState, bool) {
	if l, ok := c.lines[a]; ok {
		return l.state, l.reserved
	}
	return LineInvalid, false
}

// ReservedLines lists reserved addresses (tests).
func (c *Cache) ReservedLines() []mem.Addr {
	var out []mem.Addr
	for a, l := range c.lines {
		if l.reserved {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// isROSyncRead reports whether r takes the Section 6 read path.
func (c *Cache) isROSyncRead(r *cache.Req) bool {
	return r.Kind == mem.SyncRead && c.cfg.ROSyncBypass
}

// Issue implements cpu.MemPort.
func (c *Cache) Issue(r *cache.Req) {
	if m, ok := c.misses[r.Addr]; ok {
		m.ops = append(m.ops, r)
		return
	}
	l, present := c.lines[r.Addr]
	needX := !(r.Kind == mem.Read || c.isROSyncRead(r))
	if present && (!needX || l.state == LineExclusive) {
		c.stats.Hits++
		// The line mutation is atomic at issue time (the bus serializes
		// everything else around this instant); only the callbacks are
		// delayed by the hit latency.
		got, fire := c.apply(l, r)
		c.k.After(c.cfg.HitLatency, func() { fire(got) })
		return
	}
	c.stats.Misses++
	m := &lineMiss{ops: []*cache.Req{r}, sync: r.Kind.IsSync() && !c.isROSyncRead(r)}
	c.misses[r.Addr] = m
	if !m.sync {
		m.counted = true
		c.counter++
	}
	switch {
	case !needX:
		c.bus.request(&tx{kind: busRd, addr: r.Addr, requester: c.id})
	case present: // Shared -> Exclusive
		m.upgrade = true
		c.stats.Upgrades++
		c.bus.request(&tx{kind: busUpgr, addr: r.Addr, requester: c.id, sync: m.sync})
	default:
		c.bus.request(&tx{kind: busRdX, addr: r.Addr, requester: c.id, sync: m.sync})
	}
}

// apply performs r's state change against the resident line immediately
// and returns the read value plus a callback runner for the (possibly
// delayed) commit notification.
func (c *Cache) apply(l *line, r *cache.Req) (mem.Value, func(mem.Value)) {
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
	if r.Kind.IsSync() && !c.isROSyncRead(r) && c.cfg.UseReserve && c.counter > 0 {
		l.reserved = true
	}
	return got, func(v mem.Value) {
		if r.OnCommit != nil {
			r.OnCommit(v)
		}
		if r.OnGlobal != nil {
			// Bus transactions are atomic: commit == globally performed
			// (no other copies can exist for a write).
			r.OnGlobal()
		}
	}
}

// commit applies r and fires its callbacks immediately (fill paths).
func (c *Cache) commit(l *line, r *cache.Req) {
	got, fire := c.apply(l, r)
	fire(got)
}

// holdsReserved reports whether this cache holds a reserved copy of a
// (any state) with a positive counter — the bus retry condition.
func (c *Cache) holdsReserved(a mem.Addr) bool {
	if !c.cfg.UseReserve {
		return false
	}
	l, ok := c.lines[a]
	return ok && l.reserved && c.counter > 0
}

// snoopRd services another cache's BusRd: an exclusive owner downgrades
// and supplies the data.
func (c *Cache) snoopRd(a mem.Addr) (mem.Value, bool) {
	l, ok := c.lines[a]
	if !ok || l.state != LineExclusive {
		return 0, false
	}
	l.state = LineShared
	l.reserved = false
	return l.val, true
}

// snoopRdX services another cache's BusRdX/BusUpgr: any copy invalidates;
// an exclusive owner additionally supplies the data.
func (c *Cache) snoopRdX(a mem.Addr) (mem.Value, bool) {
	l, ok := c.lines[a]
	if !ok {
		return 0, false
	}
	had := l.state == LineExclusive
	v := l.val
	delete(c.lines, a)
	return v, had
}

// fillShared completes a BusRd.
func (c *Cache) fillShared(a mem.Addr, v mem.Value) {
	c.install(a, v, LineShared)
}

// fillExclusive completes a BusRdX.
func (c *Cache) fillExclusive(a mem.Addr, v mem.Value) {
	c.install(a, v, LineExclusive)
}

// upgraded completes a BusUpgr: the local shared copy becomes exclusive.
// If a racing BusRdX invalidated the copy while the upgrade was queued,
// the transaction behaved as a full BusRdX (the bus snooped all other
// copies and computed the current value v), so the line installs fresh.
func (c *Cache) upgraded(a mem.Addr, v mem.Value) {
	if l, ok := c.lines[a]; ok {
		l.state = LineExclusive
		c.drain(a, l)
		return
	}
	c.install(a, v, LineExclusive)
}

// install fills a line and drains the miss.
func (c *Cache) install(a mem.Addr, v mem.Value, st LineState) {
	c.makeRoom()
	l := &line{state: st, val: v, insertAt: c.fillSeq}
	c.fillSeq++
	c.lines[a] = l
	c.drain(a, l)
}

// drain commits the queued operations; an op needing exclusive on a
// shared fill reissues an upgrade.
func (c *Cache) drain(a mem.Addr, l *line) {
	m := c.misses[a]
	if m == nil {
		panic(fmt.Sprintf("snoop %d: fill for %d without a miss", c.id, a))
	}
	if m.counted {
		c.decCounter()
		m.counted = false
	}
	for len(m.ops) > 0 {
		r := m.ops[0]
		needX := !(r.Kind == mem.Read || c.isROSyncRead(r))
		if needX && l.state != LineExclusive {
			m.upgrade = true
			m.sync = r.Kind.IsSync() && !c.isROSyncRead(r)
			c.stats.Upgrades++
			if !m.sync && !m.counted {
				m.counted = true
				c.counter++
			}
			c.bus.request(&tx{kind: busUpgr, addr: a, requester: c.id, sync: m.sync})
			return
		}
		m.ops = m.ops[1:]
		c.commit(l, r)
	}
	delete(c.misses, a)
}

// decCounter decrements the counter and clears reserve bits at zero.
func (c *Cache) decCounter() {
	if c.counter <= 0 {
		panic(fmt.Sprintf("snoop %d: counter underflow", c.id))
	}
	c.counter--
	if c.counter > 0 {
		return
	}
	for _, l := range c.lines {
		l.reserved = false
	}
}

// makeRoom evicts a FIFO victim when at capacity, skipping reserved
// lines; dirty victims write back to memory synchronously (the bus
// transaction for the fill has already been serialized, and modeling the
// writeback as part of it keeps the protocol atomic).
func (c *Cache) makeRoom() {
	if c.cfg.Capacity <= 0 || len(c.lines) < c.cfg.Capacity {
		return
	}
	var victim mem.Addr
	var vl *line
	for a, l := range c.lines {
		if l.reserved {
			continue
		}
		if vl == nil || l.insertAt < vl.insertAt {
			victim, vl = a, l
		}
	}
	if vl == nil {
		return // all reserved: overflow
	}
	c.stats.Evicted++
	if vl.state == LineExclusive {
		c.bus.writeBack(victim, vl.val)
	}
	delete(c.lines, victim)
}
