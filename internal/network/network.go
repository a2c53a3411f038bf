// Package network models the two interconnect classes of the paper's
// Figure 1: a shared bus (transactions serialized globally, delivered in
// a single total order) and a general interconnection network (messages
// routed independently with variable latency, so two messages — even
// between the same endpoints — may be reordered). A 2D mesh is the
// general network with a per-hop latency term.
//
// Endpoints are small integers: processors/caches first, then memory
// modules/directories; the machine assembles the numbering. A component
// attaches a handler and sends messages; delivery is scheduled on the
// shared simulation kernel.
package network

import (
	"fmt"

	"weakorder/internal/mem"
	"weakorder/internal/metrics"
	"weakorder/internal/sim"
	"weakorder/internal/splitmix"
)

// MsgKind discriminates a message vocabulary. Kind numbering is owned by
// the protocol layers: internal/cache defines the coherence messages,
// internal/machine's flat memory modules use a disjoint range.
type MsgKind uint8

// Msg is one interconnect payload. It is a compact value struct —
// messages travel by copy through the network and the protocol handlers,
// so sending a message never heap-allocates (the interface{} payload
// this replaces boxed every message). Field meaning beyond Kind is
// assigned by the protocol that owns the kind: Peer carries an endpoint
// or tag operand (e.g. the requester of a forwarded coherence request),
// Flags carries protocol-defined booleans, Value the data payload, and
// ReqID the sender's transaction id for request dedup.
type Msg struct {
	Kind  MsgKind
	Flags uint8
	Peer  int32
	Addr  mem.Addr
	Value mem.Value
	ReqID uint64
}

// Handler receives a delivered message and the sender's endpoint id.
type Handler func(src int, m Msg)

// Network is the common interconnect interface.
type Network interface {
	// Attach registers the handler for endpoint id. Attaching twice
	// replaces the handler and records a wiring error (see Err).
	Attach(id int, h Handler)
	// Send schedules delivery of m from src to dst. A message addressed
	// to an unattached endpoint is dropped at delivery time and recorded
	// as the network's Err (a wiring bug in the assembled machine, not a
	// modeled fault).
	Send(src, dst int, m Msg)
	// Stats returns cumulative traffic statistics.
	Stats() Stats
	// Err returns the first wiring error (send to an unattached endpoint,
	// or a duplicate registration), or nil. The machine run loop checks
	// it every cycle and surfaces it as a diagnosable run failure.
	Err() error
}

// Stats summarizes interconnect traffic.
type Stats struct {
	// Messages is the number of messages sent.
	Messages uint64
	// TotalLatency is the sum of per-message delivery latencies in cycles.
	TotalLatency uint64
	// MaxQueued is the peak number of undelivered messages (bus: waiting
	// for the medium; net: in flight).
	MaxQueued int
	// Undeliverable counts messages dropped because no handler was
	// attached at the destination (see Network.Err).
	Undeliverable uint64
}

// AvgLatency returns the mean delivery latency in cycles.
func (s Stats) AvgLatency() float64 {
	if s.Messages == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Messages)
}

// Telemetry holds the optional interconnect instruments (see
// internal/metrics; nil instruments record nothing). Observation never
// alters delivery behavior or latency draws.
type Telemetry struct {
	// Latency observes each message's delivery latency in cycles.
	Latency *metrics.Histogram
	// QueueDepth observes the number of undelivered messages after each
	// send (bus: waiting for the medium; net: in flight).
	QueueDepth *metrics.Histogram
	// Classify, when set, maps a message to an additional per-class
	// latency histogram (nil for unclassified messages). The machine uses
	// it to split protocol traffic into request/reply/forward/ack classes.
	Classify func(m Msg) *metrics.Histogram
}

// observe records one delivery latency against the common and per-class
// histograms.
func (t *Telemetry) observe(m Msg, lat uint64) {
	t.Latency.Observe(lat)
	if t.Classify != nil {
		t.Classify(m).Observe(lat)
	}
}

// ---------------------------------------------------------------------------
// Dense handler table.

// handlerTable is the dense endpoint → handler table shared by every
// interconnect implementation: handler lookup is a slice index, and the
// wiring-error paths — delivery to an unattached endpoint, duplicate
// registration — report through one place. Endpoint ids are small and
// contiguous by construction (the machine numbers processors first, then
// memory modules), so the table stays tiny.
type handlerTable struct {
	handlers []Handler
	err      error
}

// attach registers h for endpoint id, recording a wiring error if the
// slot was already taken (the handler is still replaced, preserving the
// historical last-wins semantics for hand-built rigs).
func (t *handlerTable) attach(id int, h Handler) {
	if id < 0 {
		panic(fmt.Sprintf("network: negative endpoint id %d", id))
	}
	for id >= len(t.handlers) {
		t.handlers = append(t.handlers, nil)
	}
	if t.handlers[id] != nil && t.err == nil {
		t.err = fmt.Errorf("network: duplicate handler registration for endpoint %d", id)
	}
	t.handlers[id] = h
}

// lookup returns the handler for dst, or nil when dst is unattached.
func (t *handlerTable) lookup(dst int) Handler {
	if dst < 0 || dst >= len(t.handlers) {
		return nil
	}
	return t.handlers[dst]
}

// noteUndeliverable records the first unattached-endpoint delivery.
func (t *handlerTable) noteUndeliverable(m Msg, src, dst int) {
	if t.err == nil {
		t.err = fmt.Errorf("network: message kind %d from %d to unattached endpoint %d", m.Kind, src, dst)
	}
}

// ---------------------------------------------------------------------------
// General interconnection network.

// GeneralConfig parameterizes a general network.
type GeneralConfig struct {
	// BaseLatency is the minimum delivery latency in cycles (>= 1).
	BaseLatency sim.Time
	// Jitter adds a uniform random 0..Jitter cycles per message; any
	// positive jitter permits reordering between all endpoint pairs.
	Jitter sim.Time
	// OrderedPairs forces FIFO delivery per (src, dst) pair even with
	// jitter, modeling a network with point-to-point ordering.
	OrderedPairs bool
	// Seed derives the jitter stream (splitmix64), making every latency
	// draw reproducible per network instance.
	Seed int64
	// Width and Height give the mesh dimensions in nodes (default 1x1,
	// the flat network: a one-node mesh).
	Width, Height int
	// HopLatency is the per-hop router traversal cost in cycles: a
	// message pays HopLatency*Hops(src, dst) on top of BaseLatency.
	HopLatency sim.Time
	// Telemetry holds the optional interconnect instruments.
	Telemetry Telemetry
}

// General is a general interconnection network: every message travels
// independently with randomized latency.
//
// It is also a 2D mesh with deterministic XY (dimension-order) routing:
// a message first travels along X to the destination column, then along
// Y to the destination row, paying HopLatency per hop. Endpoints are
// placed row-major: endpoint e lives at node e mod (Width*Height), i.e.
// column e mod Width, row (e / Width) mod Height. The machine numbers
// processors first and directories after, so with nodes >= processors
// each processor gets its own node and the memory modules wrap around
// and co-locate with processors spread across the mesh — the usual
// distributed-directory placement. XY routing delivers point-to-point
// FIFO in real hardware (all packets for one (src,dst) pair follow the
// same path through the same router queues), which OrderedPairs models;
// a mesh without jitter never draws from its stream, so its runs are
// reproducible without a seed.
type General struct {
	k        *sim.Kernel
	cfg      GeneralConfig
	rng      splitmix.Stream
	tab      handlerTable
	stats    Stats
	inFlight int
	// lastArrival tracks, per [src][dst], the latest scheduled arrival so
	// OrderedPairs can enforce FIFO delivery — a dense table grown on
	// demand, replacing the map[[2]int]sim.Time that dominated the send
	// path's cost.
	lastArrival [][]sim.Time
	// free is the delivery-task pool: each in-flight message borrows a
	// task whose callback closure was allocated once, so steady-state
	// sends schedule zero new closures.
	free []*delivery
}

// delivery is one pooled in-flight message. run is the pre-bound
// (*delivery).deliver closure, created once per task.
type delivery struct {
	g        *General
	src, dst int
	m        Msg
	run      func()
}

func (d *delivery) deliver() {
	g := d.g
	src, dst, m := d.src, d.dst, d.m
	g.free = append(g.free, d)
	g.inFlight--
	h := g.tab.lookup(dst)
	if h == nil {
		g.stats.Undeliverable++
		g.tab.noteUndeliverable(m, src, dst)
		return
	}
	h(src, m)
}

// NewGeneral returns a general network on kernel k, with all jitter
// drawn deterministically from cfg.Seed.
func NewGeneral(k *sim.Kernel, cfg GeneralConfig) *General {
	if cfg.BaseLatency == 0 {
		cfg.BaseLatency = 1
	}
	cfg.Width, cfg.Height = max(cfg.Width, 1), max(cfg.Height, 1)
	g := &General{k: k, cfg: cfg}
	g.Reset(cfg.Seed)
	return g
}

// Attach implements Network.
func (g *General) Attach(id int, h Handler) { g.tab.attach(id, h) }

// Reset clears traffic state for a fresh run on the same wiring: stats,
// errors, FIFO bookkeeping, and the jitter stream (reseeded from seed).
// Attached handlers persist — a pooled machine reuses its endpoints.
func (g *General) Reset(seed int64) {
	g.rng.Reseed(uint64(seed))
	g.stats = Stats{}
	g.tab.err = nil
	g.inFlight = 0
	for _, row := range g.lastArrival {
		for i := range row {
			row[i] = 0
		}
	}
}

// node returns the mesh node for endpoint e (row-major placement).
func (g *General) node(e int) (x, y int) {
	p := e % (g.cfg.Width * g.cfg.Height)
	return p % g.cfg.Width, p / g.cfg.Width
}

// Hops returns the XY-route hop count between endpoints src and dst:
// the Manhattan distance between their nodes (0 on the flat network).
func (g *General) Hops(src, dst int) int {
	sx, sy := g.node(src)
	dx, dy := g.node(dst)
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// pairSlot returns a pointer to the lastArrival slot for (src, dst),
// growing the table on first use.
func (g *General) pairSlot(src, dst int) *sim.Time {
	for src >= len(g.lastArrival) {
		g.lastArrival = append(g.lastArrival, nil)
	}
	row := g.lastArrival[src]
	for dst >= len(row) {
		row = append(row, 0)
	}
	g.lastArrival[src] = row
	return &row[dst]
}

// Send implements Network.
func (g *General) Send(src, dst int, m Msg) {
	lat := g.cfg.BaseLatency
	if g.cfg.HopLatency > 0 {
		lat += g.cfg.HopLatency * sim.Time(g.Hops(src, dst))
	}
	if g.cfg.Jitter > 0 {
		lat += sim.Time(g.rng.Uint64n(uint64(g.cfg.Jitter) + 1))
	}
	arrive := g.k.Now() + lat
	if g.cfg.OrderedPairs {
		slot := g.pairSlot(src, dst)
		if arrive <= *slot {
			arrive = *slot + 1
		}
		*slot = arrive
	}
	g.stats.Messages++
	g.stats.TotalLatency += uint64(arrive - g.k.Now())
	g.cfg.Telemetry.observe(m, uint64(arrive-g.k.Now()))
	g.inFlight++
	if g.inFlight > g.stats.MaxQueued {
		g.stats.MaxQueued = g.inFlight
	}
	g.cfg.Telemetry.QueueDepth.Observe(uint64(g.inFlight))
	var d *delivery
	if n := len(g.free); n > 0 {
		d = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		d = &delivery{g: g}
		d.run = d.deliver
	}
	d.src, d.dst, d.m = src, dst, m
	g.k.At(arrive, d.run)
}

// Stats implements Network.
func (g *General) Stats() Stats { return g.stats }

// Err implements Network.
func (g *General) Err() error { return g.tab.err }

// ---------------------------------------------------------------------------
// Shared bus.

// BusConfig parameterizes a shared bus.
type BusConfig struct {
	// TransferLatency is the number of cycles one message occupies the
	// bus (>= 1).
	TransferLatency sim.Time
	// Telemetry holds the optional interconnect instruments.
	Telemetry Telemetry
}

// Bus is a shared-bus interconnect: one message at a time, FIFO
// arbitration, globally serialized delivery. All endpoints observe
// transactions in the same total order — the property Figure 1's
// bus-based rows rely on.
type Bus struct {
	k     *sim.Kernel
	cfg   BusConfig
	tab   handlerTable
	stats Stats
	// queue[head:] is the FIFO of waiting messages; head advances on
	// grant and both reset to zero when the queue drains, so the backing
	// array is reused instead of reallocated.
	queue []busMsg
	head  int
	busy  bool
	// cur is the message occupying the bus; xferDone is the pre-bound
	// completion callback (exactly one transfer is in flight at a time,
	// so a single reusable closure suffices).
	cur      busMsg
	xferDone func()
}

type busMsg struct {
	src, dst int
	m        Msg
	enq      sim.Time
}

// NewBus returns a bus on kernel k.
func NewBus(k *sim.Kernel, cfg BusConfig) *Bus {
	if cfg.TransferLatency == 0 {
		cfg.TransferLatency = 1
	}
	b := &Bus{k: k, cfg: cfg}
	b.xferDone = b.finishTransfer
	return b
}

// Attach implements Network.
func (b *Bus) Attach(id int, h Handler) { b.tab.attach(id, h) }

// Reset clears traffic state for a fresh run on the same wiring.
// Attached handlers persist — a pooled machine reuses its endpoints.
func (b *Bus) Reset() {
	b.stats = Stats{}
	b.tab.err = nil
	b.queue = b.queue[:0]
	b.head = 0
	b.busy = false
}

// Send implements Network.
func (b *Bus) Send(src, dst int, m Msg) {
	b.stats.Messages++
	b.queue = append(b.queue, busMsg{src: src, dst: dst, m: m, enq: b.k.Now()})
	if depth := len(b.queue) - b.head; depth > b.stats.MaxQueued {
		b.stats.MaxQueued = depth
	}
	b.cfg.Telemetry.QueueDepth.Observe(uint64(len(b.queue) - b.head))
	if !b.busy {
		b.grant()
	}
}

// grant starts transferring the head of the queue.
func (b *Bus) grant() {
	if b.head == len(b.queue) {
		b.queue = b.queue[:0]
		b.head = 0
		b.busy = false
		return
	}
	b.busy = true
	b.cur = b.queue[b.head]
	b.head++
	b.k.After(b.cfg.TransferLatency, b.xferDone)
}

// finishTransfer delivers the in-flight message and grants the next.
func (b *Bus) finishTransfer() {
	head := b.cur
	b.stats.TotalLatency += uint64(b.k.Now() - head.enq)
	b.cfg.Telemetry.observe(head.m, uint64(b.k.Now()-head.enq))
	h := b.tab.lookup(head.dst)
	if h == nil {
		b.stats.Undeliverable++
		b.tab.noteUndeliverable(head.m, head.src, head.dst)
		b.grant()
		return
	}
	h(head.src, head.m)
	b.grant()
}

// Stats implements Network.
func (b *Bus) Stats() Stats { return b.stats }

// Err implements Network.
func (b *Bus) Err() error { return b.tab.err }

// Compile-time interface checks.
var (
	_ Network = (*General)(nil)
	_ Network = (*Bus)(nil)
)
