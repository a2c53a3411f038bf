package machine

import (
	"fmt"

	"weakorder/internal/cache"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/sim"
)

// Machine pooling: campaigns run millions of short simulations, and
// assembling the component graph (caches with their line maps,
// directories, network queues, kernel heap, processor state) dominated
// the allocation profile. A pooled machine is Reset between runs — every
// component rewinds in place, retaining its backing arrays, free lists,
// and arenas — so a steady-state campaign iteration allocates only what
// escapes into its RunResult.
//
// Reset is only legal between *structurally identical* configurations:
// the component graph (topology, cache hierarchy, processor and module
// counts) and every parameter baked into a component at construction
// (latencies, capacities, the policy's reserve/bypass wiring, fault-
// injector presence) must match. poolKey captures exactly that set;
// per-run knobs — seed, fault plan intensity, retry tuning, write-buffer
// depth, the watchdog, fast-forward — may differ freely between runs.

// poolKey is the structural fingerprint of a configuration: two configs
// with equal keys can share one pooled machine.
type poolKey struct {
	policy        policy.Kind
	topo          Topology
	caches        bool
	busLatency    sim.Time
	netBase       sim.Time
	netJitter     sim.Time
	capacity      int
	dirMode       cache.DirMode
	dirPointers   int
	dirCoarseness int
	roUncached    bool
	faults        bool
	nProcs        int
}

// key fingerprints an already-defaulted config for nProcs processors.
func (c Config) key(nProcs int) poolKey {
	return poolKey{
		policy:        c.Policy,
		topo:          c.Topology,
		caches:        c.Caches,
		busLatency:    c.BusLatency,
		netBase:       c.NetBase,
		netJitter:     c.NetJitter,
		capacity:      c.CacheCapacity,
		dirMode:       c.DirMode,
		dirPointers:   c.DirPointers,
		dirCoarseness: c.DirCoarseness,
		roUncached:    c.ROUncachedTest,
		faults:        c.faultsEnabled(),
		nProcs:        nProcs,
	}
}

// poolable reports whether an already-defaulted config can be served by
// a pooled, resettable machine. Configurations carrying per-run
// observers (metrics, timeline), the snoopy-bus hierarchy, or migrations
// fall back to full reassembly — they are the interactive/diagnostic
// paths, not the campaign hot loop.
func (c Config) poolable() bool {
	return !c.Snoop && !c.Metrics && !c.Timeline && len(c.Migrations) == 0
}

// Reset re-targets an assembled machine at prog under cfg and seed,
// reusing the component graph — caches, directories, network queues,
// kernel heap, message pools — instead of reconstructing it. cfg must be
// structurally identical to the machine's original configuration (equal
// poolKey) and poolable; per-run knobs may change. A Reset machine runs
// byte-identically to a freshly assembled one, because New loads its
// first run through the same load: traces, results, stats, fault
// schedules, and liveness reports are indistinguishable, which
// TestPooledMachineByteIdentical pins.
//
// The previous run's RunResult aliases machine-owned buffers (Exec.Ops
// and OpCycles); Reset invalidates it. Callers that outlive the next
// run must copy what they keep.
func (m *Machine) Reset(prog *program.Program, cfg Config, seed int64) error {
	cfg, nProcs, err := prepare(prog, cfg)
	if err != nil {
		return err
	}
	if !cfg.poolable() {
		return fmt.Errorf("machine: config %s is not poolable", cfg.Name())
	}
	if got, want := cfg.key(nProcs), m.cfg.key(len(m.procs)); got != want {
		return fmt.Errorf("machine: config %s (%d procs) is structurally incompatible with pooled machine %s (%d procs)",
			cfg.Name(), nProcs, m.cfg.Name(), len(m.procs))
	}
	m.load(prog, cfg, seed)
	return nil
}

// Pool reuses assembled machines across runs, one per structural
// configuration. It is not safe for concurrent use: campaign workers
// each hold their own Pool (see internal/check).
type Pool struct {
	machines map[poolKey]*Machine
}

// NewPool returns an empty machine pool.
func NewPool() *Pool { return &Pool{machines: make(map[poolKey]*Machine)} }

// Get returns a machine ready to Run prog under cfg and seed. Poolable
// configurations draw from (and stay in) the pool, reset in place;
// anything else is assembled fresh and not retained. A pooled machine's
// previous RunResult is invalidated by Get — results must be consumed
// (or copied) before the next Get with the same structural
// configuration.
func (p *Pool) Get(prog *program.Program, cfg Config, seed int64) (*Machine, error) {
	d := cfg.withDefaults()
	if !d.poolable() {
		return New(prog, cfg, seed)
	}
	key := d.key(prog.NumThreads() + d.ExtraProcs)
	if m, ok := p.machines[key]; ok {
		if err := m.Reset(prog, cfg, seed); err != nil {
			return nil, err
		}
		return m, nil
	}
	m, err := New(prog, cfg, seed)
	if err != nil {
		return nil, err
	}
	p.machines[key] = m
	return m, nil
}

// RunPooled is the pooled analogue of Run: fetch (or reset) a machine
// from the pool and run it. The result aliases pooled buffers — see
// Get.
func (p *Pool) RunPooled(prog *program.Program, cfg Config, seed int64) (*RunResult, error) {
	m, err := p.Get(prog, cfg, seed)
	if err != nil {
		return nil, err
	}
	return m.Run()
}
