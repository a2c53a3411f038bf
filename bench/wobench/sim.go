package main

import (
	"weakorder/internal/cpu"
	"weakorder/internal/machine"
	"weakorder/internal/program"
)

// simCounts sums the modelled statistics of every simulation a traced
// run performs. They are simulated, not host, quantities: a change that
// only speeds up the simulator must leave every one of them unchanged.
type simCounts struct {
	runs           int
	cycles         uint64
	procCycles     uint64 // cycles × processors, the simulator's unit of work
	memops         uint64
	stall          [cpu.NumReasons]uint64
	maxSyncStall   map[string]uint64 // per policy name
	cacheHits      uint64
	cacheMisses    uint64
	deferredFwds   uint64
	deferredCycles uint64
	retries        uint64
	dirForwards    uint64
	invalidations  uint64
	ptrOverflows   uint64
	netMessages    uint64
	netLatency     uint64
}

func (c *simCounts) add(cfg machine.Config, s *machine.Stats) {
	c.runs++
	c.cycles += s.Cycles
	c.procCycles += s.Cycles * uint64(len(s.Procs))
	for i := range s.Procs {
		c.memops += s.Procs[i].MemOps
		for r, n := range s.Procs[i].Stall {
			c.stall[r] += n
		}
	}
	if c.maxSyncStall == nil {
		c.maxSyncStall = map[string]uint64{}
	}
	pol := cfg.Policy.String()
	c.maxSyncStall[pol] = max(c.maxSyncStall[pol], s.MaxSyncStall())
	for _, cs := range s.Caches {
		c.cacheHits += cs.Hits
		c.cacheMisses += cs.Misses
		c.deferredFwds += cs.DeferredFwds
		c.deferredCycles += cs.DeferredCycles
		c.retries += cs.Retries
	}
	for _, ds := range s.Dirs {
		c.dirForwards += ds.Forwards
		c.invalidations += ds.Invalidations
		c.ptrOverflows += ds.PtrOverflows
	}
	c.netMessages += s.Net.Messages
	c.netLatency += s.Net.TotalLatency
}

// simRunner runs pooled simulations inside "machine" spans and sums
// their statistics.
type simRunner struct {
	pool   *machine.Pool
	tr     *tracer
	counts *simCounts
}

func (r *simRunner) run(p *program.Program, cfg machine.Config, seed int64) (*machine.RunResult, error) {
	r.tr.begin("machine")
	res, err := r.pool.RunPooled(p, cfg, seed)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	r.counts.add(cfg, &res.Stats)
	return res, nil
}
