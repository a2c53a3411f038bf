// Package machine assembles full multiprocessor configurations — the four
// system classes of the paper's Figure 1 (shared bus or general network,
// with or without coherent caches) under each consistency policy — and
// runs programs on them, producing executions (in commit order), results
// (read values plus final memory), and detailed stall statistics.
package machine

import (
	"fmt"

	"weakorder/internal/cache"
	"weakorder/internal/cpu"
	"weakorder/internal/faults"
	"weakorder/internal/mem"
	"weakorder/internal/metrics"
	"weakorder/internal/network"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/sim"
	"weakorder/internal/snoop"
	"weakorder/internal/splitmix"
)

// Topology selects the interconnect class.
type Topology int

// Interconnect classes of Figure 1.
const (
	// TopoBus: shared bus — transactions globally serialized.
	TopoBus Topology = iota
	// TopoNetwork: general interconnection network — independent routing
	// with variable latency.
	TopoNetwork
	// TopoMesh: 2D mesh — deterministic XY routing, latency proportional
	// to hop distance, point-to-point FIFO. The scalable interconnect for
	// large processor counts.
	TopoMesh
)

// String names the topology.
func (t Topology) String() string {
	switch t {
	case TopoBus:
		return "bus"
	case TopoNetwork:
		return "network"
	case TopoMesh:
		return "mesh"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// ParseTopology returns the topology named s (the String form).
func ParseTopology(s string) (Topology, error) {
	for _, t := range []Topology{TopoBus, TopoNetwork, TopoMesh} {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown topology %q (want bus, network, or mesh)", s)
}

// Config parameterizes a machine.
type Config struct {
	// Policy selects the consistency enforcement rules.
	Policy policy.Kind
	// Topology selects the interconnect.
	Topology Topology
	// Caches enables the coherent cache hierarchy; false gives the
	// no-cache rows of Figure 1 (processors talk to memory modules
	// directly). Weak-ordering policies require caches.
	Caches bool
	// Snoop selects the snoopy-bus MSI protocol (package snoop) instead
	// of the directory protocol; requires Caches and TopoBus. Reserved
	// lines NACK (bus-retry) other processors' transactions.
	Snoop bool
	// BusLatency is the per-message bus occupancy (default 3).
	BusLatency sim.Time
	// NetBase/NetJitter parameterize the general network (defaults 6/4).
	// Any positive jitter permits message reordering between endpoint
	// pairs; with caches the coherence protocol requires point-to-point
	// ordering, so jitter then varies latency while each (src,dst) pair
	// stays FIFO. On TopoMesh, NetBase is the injection/ejection
	// overhead added to meshHop cycles per hop; mesh latency is
	// deterministic, so NetJitter does not apply.
	NetBase   sim.Time
	NetJitter sim.Time
	// DirMode selects the directory's sharer-tracking scheme (default
	// cache.DirFullMap, the exact correctness reference). The scalable
	// modes (cache.DirLimitedPtr, cache.DirCoarseVector) keep bounded
	// per-line state and over-invalidate on overflow. Requires Caches.
	DirMode cache.DirMode
	// DirPointers is the pointer count for cache.DirLimitedPtr (default 4).
	DirPointers int
	// DirCoarseness is the processors-per-group size for
	// cache.DirCoarseVector (default 8).
	DirCoarseness int
	// CacheCapacity bounds resident lines per cache (0 = unbounded).
	CacheCapacity int
	// WriteBuffer is the per-processor write buffer depth (default 8).
	WriteBuffer int
	// MaxOutstandingWrites bounds each processor's in-flight writes — the
	// lockup-free write parallelism (default 8).
	MaxOutstandingWrites int
	// MaxCycles is the deadlock watchdog (default 2,000,000). A watchdog
	// death returns a *LivenessError carrying a structured report.
	MaxCycles uint64
	// Faults, when non-nil and enabled, wraps the interconnect in the
	// deterministic fault injector (internal/faults) — request-class
	// coherence messages may be dropped, duplicated, or delayed — and
	// arms the caches' timeout/retry protocol. Requires Caches (the
	// no-cache ports have no retry protocol) and the directory protocol
	// (the snoopy bus has no message layer to fault).
	Faults *faults.Plan
	// RetryTimeout overrides the caches' request-retry timeout (default
	// 256 cycles when a fault plan is enabled, else retry is off; a plan's
	// DisableRetry turns it off). See cache.Config.RetryTimeout.
	RetryTimeout sim.Time
	// RetryMax overrides the per-transaction resend bound (default 16).
	RetryMax int
	// ROUncachedTest switches WO-Def2+RO's read-only synchronization
	// reads from cached-shared copies to uncached remote value reads (an
	// ablation; see cache.Config.ROSyncUncached).
	ROUncachedTest bool
	// DisableFastForward forces the run loop to tick every cycle
	// individually instead of skipping idle stretches (cycles where
	// every processor is provably inert and no kernel event or cache
	// retry deadline is due). Fast-forward is semantics-preserving —
	// runs are byte-identical either way, which the differential tests
	// assert using this switch; it exists only for those tests and for
	// debugging.
	DisableFastForward bool
	// Metrics enables the telemetry registry: RunResult.Metrics carries a
	// deterministic snapshot of every counter, gauge, and histogram (see
	// internal/metrics). Off by default and free when off; enabling it
	// never perturbs the simulation — no RNG draws, no kernel events.
	Metrics bool
	// Timeline enables span/event recording: RunResult.Timeline carries
	// per-processor stall spans and op-commit instants, per-directory
	// pending-transaction spans, and, when a fault plan is armed, the
	// injector's DROP/DUP/DELAY/RETRY decisions as instants on a
	// "faults" track. It exports as Chrome trace_event JSON or as the
	// text table `wosim -trace` prints. Independent of Metrics and
	// equally perturbation-free.
	Timeline bool
	// ExtraProcs adds idle processors beyond the program's threads —
	// migration targets (Section 5.1's process re-scheduling).
	ExtraProcs int
	// Migrations schedules process re-scheduling: at (or after) the given
	// cycle, the thread running on processor From drains (write buffer
	// empty, counter zero — "all previous reads returned and all previous
	// writes globally performed") and resumes on the idle processor To.
	Migrations []Migration
}

// Migration re-schedules a thread onto another processor.
type Migration struct {
	// AtCycle is the earliest cycle the context switch may begin.
	AtCycle uint64
	// From is the processor currently running the thread.
	From int
	// To is the idle destination processor.
	To int
}

// Fixed latencies, in cycles.
const (
	meshHop    sim.Time = 2 // per-hop router latency on TopoMesh
	memLatency sim.Time = 4 // directory/memory access time
	cacheHit   sim.Time = 1 // cache hit latency
)

// memModules is the topology's number of memory/directory modules:
// addresses interleave across them modulo this count.
func (t Topology) memModules() int {
	switch t {
	case TopoNetwork:
		return 2
	case TopoMesh:
		return 4
	default:
		return 1
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.DirPointers == 0 {
		c.DirPointers = 4
	}
	if c.DirCoarseness == 0 {
		c.DirCoarseness = 8
	}
	if c.BusLatency == 0 {
		c.BusLatency = 3
	}
	if c.NetBase == 0 {
		c.NetBase = 6
	}
	if c.NetJitter == 0 {
		c.NetJitter = 4
	}
	if c.WriteBuffer == 0 {
		c.WriteBuffer = 8
	}
	if c.MaxOutstandingWrites == 0 {
		c.MaxOutstandingWrites = 8
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 2_000_000
	}
	switch {
	case c.Faults != nil && c.Faults.DisableRetry:
		c.RetryTimeout = 0
	case c.faultsEnabled() && c.RetryTimeout == 0:
		// Generous relative to the worst fault-free round trip (base +
		// jitter + injected delay, twice, plus directory queueing):
		// premature retries are only absorbed duplicates, but a timeout
		// far too low would retry every queued request forever.
		c.RetryTimeout = 256
	}
	return c
}

// faultsEnabled reports whether a non-trivial fault plan is configured.
func (c Config) faultsEnabled() bool {
	return c.Faults != nil && c.Faults.Enabled()
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if c.Snoop {
		if !c.Caches {
			return fmt.Errorf("machine: Snoop requires Caches")
		}
		if c.Topology != TopoBus {
			return fmt.Errorf("machine: the snoopy protocol requires the bus topology")
		}
	}
	switch c.Policy {
	case policy.WODef1, policy.WODef2, policy.WODef2RO:
		if !c.Caches {
			return fmt.Errorf("machine: policy %v requires caches (reserve bits and counters live in the cache hierarchy)", c.Policy)
		}
	case policy.SC, policy.Unconstrained:
	default:
		return fmt.Errorf("machine: unknown policy %v", c.Policy)
	}
	if c.DirMode != cache.DirFullMap && !c.Caches {
		return fmt.Errorf("machine: directory mode %v requires Caches", c.DirMode)
	}
	if c.Topology < TopoBus || c.Topology > TopoMesh {
		return fmt.Errorf("machine: unknown topology %v", c.Topology)
	}
	for _, f := range []struct {
		name string
		n    int
	}{
		{"DirPointers", c.DirPointers},
		{"DirCoarseness", c.DirCoarseness},
		{"CacheCapacity", c.CacheCapacity},
		{"WriteBuffer", c.WriteBuffer},
		{"MaxOutstandingWrites", c.MaxOutstandingWrites},
		{"RetryMax", c.RetryMax},
		{"ExtraProcs", c.ExtraProcs},
	} {
		if f.n < 0 {
			return fmt.Errorf("machine: %s must be non-negative, got %d", f.name, f.n)
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
		if c.faultsEnabled() {
			if !c.Caches {
				return fmt.Errorf("machine: fault injection requires Caches (the no-cache memory ports have no retry protocol)")
			}
			if c.Snoop {
				return fmt.Errorf("machine: fault injection requires the directory protocol (the snoopy bus has no message layer)")
			}
		}
	}
	return nil
}

// Name renders the configuration compactly, e.g. "bus+caches/WO-Def2".
// Non-default directory modes are spelled out ("mesh+caches-limited/..."),
// keeping the full-map names byte-identical to earlier releases.
func (c Config) Name() string {
	cc := "nocache"
	if c.Caches {
		cc = "caches"
		if c.DirMode != cache.DirFullMap {
			cc += "-" + c.DirMode.String()
		}
	}
	if c.Snoop {
		cc = "snoop"
	}
	return fmt.Sprintf("%v+%s/%v", c.Topology, cc, c.Policy)
}

// Stats aggregates a run's measurements.
type Stats struct {
	// Cycles is the total simulated time until full drain.
	Cycles uint64
	// Procs holds per-processor statistics.
	Procs []cpu.Stats
	// Caches holds per-cache statistics (nil without caches).
	Caches []cache.Stats
	// Dirs holds per-directory statistics (nil without caches).
	Dirs []cache.DirStats
	// Net holds interconnect statistics (zero under the snoopy protocol,
	// which uses the atomic bus in Snoop).
	Net network.Stats
	// Snoop holds snoopy-bus statistics (nil under the directory
	// protocol).
	Snoop *snoop.Stats
	// SnoopCaches holds per-cache snoopy statistics.
	SnoopCaches []snoop.CacheStats
}

// MaxSyncStall returns the largest per-processor synchronization stall.
func (s *Stats) MaxSyncStall() uint64 {
	var m uint64
	for i := range s.Procs {
		if v := s.Procs[i].SyncStall(); v > m {
			m = v
		}
	}
	return m
}

// TotalStall sums all processors' stall cycles.
func (s *Stats) TotalStall() uint64 {
	var t uint64
	for i := range s.Procs {
		t += s.Procs[i].TotalStall()
	}
	return t
}

// RunResult is the outcome of one simulation.
type RunResult struct {
	// Exec lists the committed memory operations in commit order plus the
	// final memory state.
	Exec *mem.Execution
	// Result is the observable outcome (Definition 2's "result").
	Result mem.Result
	// Regs holds each logical thread's final register file (indexed by
	// thread id), for litmus postcondition evaluation.
	Regs []program.RegFile
	// Stats holds the measurements.
	Stats Stats
	// OpCycles holds, for each entry of Exec.Ops, the cycle at which that
	// operation committed — the timeline axis for trace rendering.
	OpCycles []uint64
	// FaultStats holds the fault injector's counters when a fault plan was
	// active (nil otherwise).
	FaultStats *faults.Stats
	// Metrics holds the telemetry snapshot when Config.Metrics was set.
	Metrics *metrics.Snapshot
	// Timeline holds the recorded timeline when Config.Timeline was set.
	Timeline *metrics.Timeline
}

// CondHolds evaluates the program's postcondition (if any) against this
// run's final registers and memory; programs without a condition report
// false.
func (r *RunResult) CondHolds(p *program.Program) bool {
	if p.Cond == nil {
		return false
	}
	return p.Cond.Eval(r.Regs, r.Exec.Final)
}

// Machine is one assembled multiprocessor.
type Machine struct {
	cfg         Config
	prog        *program.Program
	kernel      *sim.Kernel
	net         network.Network
	rawNet      network.Network // the interconnect beneath any fault injector
	fnet        *faults.Net
	procs       []*cpu.Proc
	caches      []*cache.Cache
	dirs        []*cache.Directory
	snoopBus    *snoop.Bus
	snoopCaches []*snoop.Cache
	flats       []*flatModule
	ports       []cpu.MemPort
	trace       []mem.Op
	traceCycles []uint64
	// pendingMigrations is consumed front-to-back as cycles pass.
	pendingMigrations []Migration
	suspending        bool

	// order is the arbitration permutation of every processor, which arb
	// reshuffles each cycle. live marks the processors that can still act
	// (not Halted after a drain phase; nLive counts them), and act lists
	// the current cycle's live processors in arbitration order, filled by
	// the same walk: only those are stepped. busy holds the caches with
	// outstanding transactions, the only ones whose retry timers need
	// polling. All are allocated once so pooled machines run
	// allocation-free.
	arb       arbiter
	order     []int
	live      []bool
	nLive     int
	act       []int
	busy      cache.BusySet
	idleNames []string // padding processors' thread names, built once

	// Telemetry (nil when Config.Metrics/Timeline are off; see
	// internal/metrics for why recording cannot perturb the run).
	reg        *metrics.Registry
	tl         *metrics.Timeline
	procTracks []*metrics.Track
	ffSkips    uint64 // fast-forward jumps taken
	ffCycles   uint64 // idle cycles skipped by fast-forward
}

// New assembles a machine for prog under cfg, seeding all randomized
// latencies from seed: it builds the component graph, then loads the run
// the way Reset does.
func New(prog *program.Program, cfg Config, seed int64) (*Machine, error) {
	cfg, nProcs, err := prepare(prog, cfg)
	if err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, kernel: &sim.Kernel{}}
	m.build(nProcs)
	m.load(prog, cfg, seed)
	return m, nil
}

// prepare fills cfg's defaults, validates it with prog, and returns the
// processor count.
func prepare(prog *program.Program, cfg Config) (Config, int, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return cfg, 0, err
	}
	if err := prog.Validate(); err != nil {
		return cfg, 0, err
	}
	nProcs := prog.NumThreads() + cfg.ExtraProcs
	for _, mg := range cfg.Migrations {
		if mg.From < 0 || mg.From >= nProcs || mg.To < 0 || mg.To >= nProcs || mg.From == mg.To {
			return cfg, 0, fmt.Errorf("machine: invalid migration %+v (have %d processors)", mg, nProcs)
		}
	}
	return cfg, nProcs, nil
}

// build assembles the component graph for nProcs processors under m.cfg:
// everything poolKey fixes. The per-run state is load's.
func (m *Machine) build(nProcs int) {
	cfg := m.cfg
	if cfg.Metrics {
		m.reg = metrics.NewRegistry()
	}
	if cfg.Timeline {
		m.tl = metrics.NewTimeline()
		// Processors first, then directories: track registration order is
		// the exported row order.
		for i := 0; i < nProcs; i++ {
			m.procTracks = append(m.procTracks, m.tl.Track(fmt.Sprintf("proc %d", i)))
		}
	}

	if cfg.Snoop {
		m.snoopBus = snoop.NewBus(m.kernel, snoop.BusConfig{
			TransferLatency: cfg.BusLatency,
			MemLatency:      memLatency,
		})
		for i := 0; i < nProcs; i++ {
			sc := snoop.NewCache(m.kernel, m.snoopBus, snoop.Config{
				HitLatency:   cacheHit,
				Capacity:     cfg.CacheCapacity,
				UseReserve:   cfg.Policy.UsesReserve(),
				ROSyncBypass: cfg.Policy.ROSyncBypass(),
			})
			m.snoopCaches = append(m.snoopCaches, sc)
			m.ports = append(m.ports, sc)
		}
		m.buildProcs(nProcs)
		return
	}

	modules := cfg.Topology.memModules()
	switch cfg.Topology {
	case TopoBus:
		m.net = network.NewBus(m.kernel, network.BusConfig{
			TransferLatency: cfg.BusLatency,
			Telemetry:       m.netTelemetry(),
		})
	case TopoNetwork:
		m.net = network.NewGeneral(m.kernel, network.GeneralConfig{
			BaseLatency: cfg.NetBase,
			Jitter:      cfg.NetJitter,
			// The directory protocol requires point-to-point FIFO; the
			// raw (no-cache) configuration exhibits Lamport's reordering.
			OrderedPairs: cfg.Caches,
			Telemetry:    m.netTelemetry(),
		})
	case TopoMesh:
		// XY routing: latency grows with hop distance, every pair stays
		// FIFO, and without jitter nothing is drawn from the stream.
		w, h := meshDims(nProcs + modules)
		m.net = network.NewGeneral(m.kernel, network.GeneralConfig{
			Width:        w,
			Height:       h,
			BaseLatency:  cfg.NetBase,
			HopLatency:   meshHop,
			OrderedPairs: true,
			Telemetry:    m.netTelemetry(),
		})
	}
	m.rawNet = m.net

	if cfg.faultsEnabled() {
		// Wrap the interconnect before any endpoint captures it, so every
		// component's sends pass through the injector; load arms the plan.
		// With the timeline on, the decisions land on a track of their
		// own, registered after the processors'.
		m.fnet = faults.New(m.kernel, m.net, faults.Plan{}, 0, faults.Hooks{
			Faultable: func(msg network.Msg) bool { return cache.Faultable(msg) },
			Describe:  func(msg network.Msg) string { return cache.MsgName(msg) },
			Track:     m.tl.Track("faults"),
		})
		m.net = m.fnet
	}

	home := func(a mem.Addr) int { return nProcs + int(a)%modules }

	if cfg.Caches {
		for i := 0; i < modules; i++ {
			dcfg := cache.DirConfig{
				ID:         nProcs + i,
				NumProcs:   nProcs,
				Latency:    memLatency,
				Mode:       cfg.DirMode,
				Pointers:   cfg.DirPointers,
				Coarseness: cfg.DirCoarseness,
			}
			if m.reg != nil {
				dcfg.QueueDepth = m.reg.Histogram(fmt.Sprintf("dir.%d.queue_depth", i), metrics.DepthBounds)
			}
			if m.tl != nil {
				dcfg.Track = m.tl.Track(fmt.Sprintf("dir %d", i))
			}
			m.dirs = append(m.dirs, cache.NewDirectory(m.kernel, m.net, dcfg))
		}
		for i := 0; i < nProcs; i++ {
			ccfg := cache.Config{
				ID:             i,
				Home:           home,
				HitLatency:     cacheHit,
				Capacity:       cfg.CacheCapacity,
				UseReserve:     cfg.Policy.UsesReserve(),
				ROSyncBypass:   cfg.Policy.ROSyncBypass(),
				ROSyncUncached: cfg.ROUncachedTest,
			}
			if m.reg != nil {
				ccfg.ReserveHold = m.reg.Histogram(fmt.Sprintf("cache.%d.reserve_hold", i), metrics.HoldBounds)
				ccfg.DeferHold = m.reg.Histogram(fmt.Sprintf("cache.%d.defer_hold", i), metrics.HoldBounds)
				ccfg.RetryBackoff = m.reg.Histogram(fmt.Sprintf("cache.%d.retry_backoff", i), metrics.HoldBounds)
			}
			if m.fnet != nil {
				id := i
				ccfg.OnRetry = func(dst int, msg network.Msg, attempt int) {
					m.fnet.NoteRetry(id, dst, msg, attempt)
				}
			}
			c := cache.New(m.kernel, m.net, ccfg)
			c.TrackBusy(&m.busy)
			m.caches = append(m.caches, c)
			m.ports = append(m.ports, c)
		}
	} else {
		for i := 0; i < modules; i++ {
			m.flats = append(m.flats, newFlatModule(m.kernel, m.net, nProcs+i, memLatency))
		}
		for i := 0; i < nProcs; i++ {
			m.ports = append(m.ports, newFlatPort(m.kernel, m.net, i, home))
		}
	}

	m.buildProcs(nProcs)
}

// meshDims picks near-square mesh dimensions for n endpoints: the
// smallest width w with w*w >= n, and the smallest height covering n at
// that width. 16 procs + 4 modules → 5x4; 256 + 4 → 17x16.
func meshDims(n int) (w, h int) {
	if n < 1 {
		n = 1
	}
	w = 1
	for w*w < n {
		w++
	}
	h = (n + w - 1) / w
	return w, h
}

// buildProcs builds the processors over the assembled ports; load sets
// their configuration and threads.
func (m *Machine) buildProcs(nProcs int) {
	m.idleNames = make([]string, nProcs)
	for i := 0; i < nProcs; i++ {
		track := m.procTrack(i)
		p := cpu.New(m.kernel, cpu.Config{}, program.Thread{}, m.ports[i], func(op mem.Op) {
			m.trace = append(m.trace, op)
			m.traceCycles = append(m.traceCycles, uint64(m.kernel.Now()))
			if track != nil {
				track.Mark(op.String(), m.kernel.Now())
			}
		})
		m.procs = append(m.procs, p)
	}
	m.order = make([]int, nProcs)
	m.live = make([]bool, nProcs)
	m.act = make([]int, nProcs)
}

// load readies the assembled machine for one run of prog under cfg and
// seed: every per-run knob and all initial state. New calls it on a
// fresh graph and Reset on a used one, so a pooled machine runs exactly
// as a fresh one.
func (m *Machine) load(prog *program.Program, cfg Config, seed int64) {
	m.cfg = cfg
	m.prog = prog
	m.kernel.Reset()
	m.arb.seed(seed)
	m.trace = m.trace[:0]
	m.traceCycles = m.traceCycles[:0]
	m.pendingMigrations = nil
	m.suspending = false
	m.ffSkips, m.ffCycles = 0, 0

	switch n := m.rawNet.(type) {
	case *network.General:
		n.Reset(seed)
	case *network.Bus:
		n.Reset()
	}
	if m.fnet != nil {
		// The fault stream is derived from (not equal to) the machine
		// seed, so fault decisions do not correlate with network jitter.
		m.fnet.Reset(*cfg.Faults, splitmix.Mix(uint64(seed)^0xfa17))
	}
	for _, d := range m.dirs {
		d.Reset(!cfg.faultsEnabled() && cfg.RetryTimeout == 0)
	}
	for _, c := range m.caches {
		c.Reset(cfg.RetryTimeout, cfg.RetryMax)
	}
	for _, mod := range m.flats {
		mod.reset()
	}
	for _, port := range m.ports {
		if fp, ok := port.(*flatPort); ok {
			fp.reset()
		}
	}
	for a, v := range prog.Init {
		switch {
		case m.snoopBus != nil:
			m.snoopBus.SetInit(a, v)
		case cfg.Caches:
			m.dirs[int(a)%len(m.dirs)].SetInit(a, v)
		default:
			m.flats[int(a)%len(m.flats)].mem[a] = v
		}
	}
	for i, p := range m.procs {
		p.Reset(cpu.Config{
			ID:                   i,
			ThreadID:             i,
			Policy:               cfg.Policy,
			WriteBufferSize:      cfg.WriteBuffer,
			MaxOutstandingWrites: cfg.MaxOutstandingWrites,
			Track:                m.procTrack(i),
		}, m.thread(prog, i))
	}
}

// thread is the program run by processor i: its own thread, or an empty
// padding thread whose name is built once per machine, so that pooled
// resets do not allocate it again.
func (m *Machine) thread(prog *program.Program, i int) program.Thread {
	if i < prog.NumThreads() {
		return prog.Threads[i]
	}
	if m.idleNames[i] == "" {
		m.idleNames[i] = fmt.Sprintf("idle%d", i)
	}
	return program.Thread{Name: m.idleNames[i]}
}

// done reports whether all processors halted and every component drained.
func (m *Machine) done() bool {
	if len(m.pendingMigrations) > 0 || m.nLive > 0 {
		return false
	}
	for _, port := range m.ports {
		if port.Busy() {
			return false
		}
	}
	for _, d := range m.dirs {
		if !d.Idle() {
			return false
		}
	}
	if m.snoopBus != nil && !m.snoopBus.Idle() {
		return false
	}
	return m.kernel.Pending() == 0
}

// Run simulates to completion (or the watchdog) and returns the outcome.
// Each cycle, every front end ticks (in a seeded arbitration order), then
// every write buffer drains: reads dispatched this cycle reach the
// interconnect ahead of older buffered writes.
//
// A Halted processor (front end halted, write buffer empty) does nothing
// in any phase until a migration installs a thread on it: kernel events
// neither halt nor wake a processor. So a processor leaves the live set
// once it is Halted after the drain phase and rejoins only in
// stepMigrations, and each cycle steps the live processors alone, in
// their places in the arbitration order, which is still drawn over every
// processor. A migration whose destination still runs its own thread
// ends the run with an error.
func (m *Machine) Run() (*RunResult, error) {
	m.pendingMigrations = append([]Migration(nil), m.cfg.Migrations...)
	order := m.order
	m.nLive = 0
	for i, p := range m.procs {
		order[i] = i
		m.live[i] = !p.Halted()
		if m.live[i] {
			m.nLive++
		}
	}
	for cycle := uint64(1); ; cycle++ {
		if m.done() {
			break
		}
		if cycle > m.cfg.MaxCycles {
			return nil, &LivenessError{Report: m.liveness()}
		}
		m.kernel.AdvanceTo(sim.Time(cycle))
		if err := m.stepMigrations(cycle); err != nil {
			return nil, err
		}
		act := m.act[:m.nLive]
		m.arb.shuffle(order, m.live, act)
		for _, i := range act {
			m.procs[i].Tick()
			if err := m.procs[i].Err(); err != nil {
				return nil, err
			}
		}
		for _, i := range act {
			p := m.procs[i]
			p.Drain()
			if p.Halted() {
				m.live[i] = false
				m.nLive--
			}
		}
		// Retry timeouts are polled, not kernel events: a timer event would
		// keep Pending() nonzero and wedge done()-detection. Only a cache
		// with an outstanding transaction has a timer to poll.
		for _, id := range m.busy.IDs() {
			m.caches[id].CheckTimeouts(m.kernel.Now())
		}
		if m.net != nil {
			if err := m.net.Err(); err != nil {
				return nil, fmt.Errorf("machine %s: interconnect fault: %w", m.cfg.Name(), err)
			}
		}
		// Idle-cycle fast-forward: when every processor is provably inert
		// (cpu.Quiescent) nothing can change until the next kernel event
		// or cache retry deadline, so skip straight to the cycle before
		// it, replaying the per-cycle effects the skipped iterations
		// would have had — the arbitration shuffle's RNG draws and the
		// stall accounting — to keep runs byte-identical with the
		// one-cycle-at-a-time loop. Migration progress is per-cycle
		// stateful, so any pending migration disables skipping.
		if m.cfg.DisableFastForward || len(m.pendingMigrations) > 0 {
			continue
		}
		// Halted processors are quiescent and accrue no stall cycles, so
		// act (a superset of the live set) covers every processor that
		// matters here.
		quiet := true
		for _, i := range act {
			if !m.procs[i].Quiescent() {
				quiet = false
				break
			}
		}
		if !quiet {
			continue
		}
		target := m.cfg.MaxCycles + 1 // wedged: skip to the watchdog
		if t, ok := m.kernel.NextEvent(); ok && uint64(t) < target {
			target = uint64(t)
		}
		for _, id := range m.busy.IDs() {
			if t, ok := m.caches[id].NextRetryDeadline(); ok && uint64(t) < target {
				target = uint64(t)
			}
		}
		if target <= cycle+1 || m.done() {
			continue
		}
		skipped := target - 1 - cycle
		m.ffSkips++
		m.ffCycles += skipped
		for n := skipped; n > 0; n-- {
			m.arb.shuffle(order, nil, nil)
		}
		for _, i := range act {
			m.procs[i].AddStallCycles(skipped)
		}
		m.kernel.AdvanceTo(sim.Time(target - 1))
		cycle = target - 1
	}

	exec := &mem.Execution{
		Ops:   m.trace,
		Final: m.finalState(),
		Procs: len(m.procs),
	}
	res := &RunResult{
		Exec:   exec,
		Result: mem.ResultOf(exec),
		Regs:   make([]program.RegFile, m.prog.NumThreads()),
	}
	for _, p := range m.procs {
		if fr, ok := p.FinalRegs(); ok && p.ThreadID() < len(res.Regs) {
			res.Regs[p.ThreadID()] = fr
		}
	}
	res.OpCycles = m.traceCycles
	res.Stats.Cycles = uint64(m.kernel.Now())
	for _, p := range m.procs {
		res.Stats.Procs = append(res.Stats.Procs, p.Stats())
	}
	for _, c := range m.caches {
		res.Stats.Caches = append(res.Stats.Caches, c.Stats())
	}
	for _, d := range m.dirs {
		res.Stats.Dirs = append(res.Stats.Dirs, d.Stats())
	}
	if m.net != nil {
		res.Stats.Net = m.net.Stats()
	}
	if m.snoopBus != nil {
		st := m.snoopBus.Stats()
		res.Stats.Snoop = &st
		for _, sc := range m.snoopCaches {
			res.Stats.SnoopCaches = append(res.Stats.SnoopCaches, sc.Stats())
		}
	}
	if m.fnet != nil {
		st := m.fnet.FaultStats()
		res.FaultStats = &st
	}
	if m.tl != nil {
		m.tl.Close(m.kernel.Now())
		res.Timeline = m.tl
	}
	if m.reg != nil {
		m.publishStats(res)
		res.Metrics = m.reg.Snapshot()
	}
	return res, nil
}

// finalState reads the final value of every program-visible address:
// a dirty cached copy wins over memory.
func (m *Machine) finalState() map[mem.Addr]mem.Value {
	addrs := m.prog.Addresses()
	out := make(map[mem.Addr]mem.Value, len(addrs))
	for _, a := range addrs {
		if m.snoopBus != nil {
			v := m.snoopBus.MemValue(a)
			for _, sc := range m.snoopCaches {
				if dv, dirty := sc.Snoop(a); dirty {
					v = dv
					break
				}
			}
			out[a] = v
			continue
		}
		if m.cfg.Caches {
			v := m.dirs[int(a)%len(m.dirs)].MemValue(a)
			for _, c := range m.caches {
				if dv, dirty := c.Snoop(a); dirty {
					v = dv
					break
				}
			}
			out[a] = v
		} else {
			out[a] = m.flats[int(a)%len(m.flats)].mem[a]
		}
	}
	return out
}

// stepMigrations drives the paper's context-switch protocol for the
// head pending migration: request suspension, wait until the source has
// drained (parked, counter zero, no outstanding transactions), then move
// the thread state to the destination. The destination must be idle:
// its own thread halted, or retired by an earlier migration.
func (m *Machine) stepMigrations(cycle uint64) error {
	if len(m.pendingMigrations) == 0 {
		return nil
	}
	mg := m.pendingMigrations[0]
	if cycle < mg.AtCycle {
		return nil
	}
	src := m.procs[mg.From]
	if !m.suspending {
		src.RequestSuspend()
		m.suspending = true
	}
	drained := (src.Suspended() || src.Halted()) &&
		m.ports[mg.From].Counter() == 0 && !m.ports[mg.From].Busy()
	if !drained {
		return nil
	}
	if src.Halted() {
		// The thread finished before the switch: nothing to move.
		m.pendingMigrations = m.pendingMigrations[1:]
		m.suspending = false
		return nil
	}
	if err := m.procs[mg.To].Install(src.Export()); err != nil {
		// New checks only that the processors exist and differ; whether
		// the destination is still busy shows only now.
		return fmt.Errorf("machine: migration %+v: %w", mg, err)
	}
	src.Retire()
	if !m.live[mg.To] {
		m.live[mg.To] = true
		m.nLive++
	}
	m.pendingMigrations = m.pendingMigrations[1:]
	m.suspending = false
	return nil
}

// Run is the convenience one-shot: assemble and run.
func Run(prog *program.Program, cfg Config, seed int64) (*RunResult, error) {
	m, err := New(prog, cfg, seed)
	if err != nil {
		return nil, err
	}
	return m.Run()
}
