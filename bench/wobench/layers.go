package main

import (
	"math"
	"path/filepath"

	"weakorder/internal/cpu"
	"weakorder/internal/sat"
)

// finishTrace checks the spans, writes them as a Chrome trace, and adds
// the per-layer metrics of a traced run. wallOn and wallOff time the
// same replay with and without spans.
func finishTrace(r *report, o options, tr *tracer, n *counts, prof map[string]float64, wallOn, wallOff float64) error {
	nerr := checkNesting(tr.spans)
	r.check("spans-nest", nerr == nil, "%v", nerr)
	lt := tr.table()
	sum := lt.unattributed
	for _, s := range lt.self {
		sum += s
	}
	r.check("spans-cover-wall", math.Abs(sum-lt.wall) <= 0.05*lt.wall,
		"self times plus unattributed %.4fs, traced wall %.4fs", sum, lt.wall)
	r.traceFile = filepath.Join(o.workdir, o.workload+".trace.json")
	if err := tr.writeChrome(r.traceFile); err != nil {
		return err
	}
	layerMetrics(r, n, lt, prof, wallOn, wallOff)
	return nil
}

// layerMetrics adds the per-layer table. Self time is reported as a
// share of the traced wall time (trace.wall_s), which also keeps the
// numbers comparable across hosts of different speed.
func layerMetrics(r *report, n *counts, lt layerTimes, prof map[string]float64, wallOn, wallOff float64) {
	count := func(name string, v int) { r.add(name, "count", float64(v)) }
	share := func(name string, v float64) { r.add(name, "ratio", v) }
	self := func(layer string) float64 { return ratio(lt.self[layer], lt.wall) }

	count("gen.calls", n.genCalls)
	share("gen.self_frac", self("gen"))
	count("drf.calls", n.drfCalls)
	share("drf.self_frac", self("drf"))
	share("drf.racy_frac", ratio(float64(n.drfRacy), float64(n.drfCalls)))
	count("machine.calls", n.sim.runs)
	share("machine.self_frac", self("machine"))
	r.add("machine.host_ns_per_proccycle", "ns", ratio(lt.self["machine"]*1e9, float64(n.sim.procCycles)))
	count("mem.key_calls", n.keyCalls)
	share("mem.key_self_frac", self("mem"))
	share("check.l1_hit_frac", ratio(float64(n.l1Hits), float64(n.sims)))

	count("sat.calls", n.satCalls)
	share("sat.self_frac", self("sat"))
	share("sat.decided_frac", ratio(float64(n.satDecided), float64(n.satCalls)))
	other := 0
	for _, c := range n.satFallbacks {
		other += c
	}
	for _, reason := range []string{sat.ReasonAmbiguousRF, sat.ReasonCoIncomplete} {
		count("sat.fallback."+reason, n.satFallbacks[reason])
		other -= n.satFallbacks[reason]
	}
	count("sat.fallback.other", other)

	count("ideal.calls", n.idealCalls)
	share("ideal.self_frac", self("ideal"))
	count("ideal.steps", n.idealSteps)
	share("ideal.incomplete_frac", ratio(float64(n.idealIncomplete), float64(n.idealCalls)))
	count("scmatch.calls", n.scmatchCalls)
	share("scmatch.self_frac", self("scmatch"))
	count("scmatch.budget_exceeded", n.scmatchBudget)
	count("shrink.calls", n.shrinkCalls)
	share("shrink.self_frac", self("shrink"))
	count("shrink.tries", n.shrinkTries)
	share("shrink.accept_frac", ratio(float64(n.shrinkAccepted), float64(n.shrinkTries)))
	count("corpus.calls", n.corpusCalls)
	share("corpus.self_frac", self("corpus"))

	s := &n.sim
	cycles := func(name string, v uint64) { r.add(name, "cycles", float64(v)) }
	cycles("machine.sim_cycles", s.cycles)
	r.add("cpu.memops", "count", float64(s.memops))
	for i := 0; i < cpu.NumReasons; i++ {
		cycles("cpu.stall_cycles."+cpu.Reason(i).String(), s.stall[i])
	}
	for _, pol := range fig3Policies {
		cycles("cpu.max_sync_stall_cycles."+pol.String(), s.maxSyncStall[pol.String()])
	}
	r.add("cache.hits", "count", float64(s.cacheHits))
	r.add("cache.misses", "count", float64(s.cacheMisses))
	r.add("cache.deferred_fwds", "count", float64(s.deferredFwds))
	cycles("cache.deferred_cycles", s.deferredCycles)
	r.add("cache.retries", "count", float64(s.retries))
	r.add("dir.forwards", "count", float64(s.dirForwards))
	r.add("dir.invalidations", "count", float64(s.invalidations))
	r.add("dir.ptr_overflows", "count", float64(s.ptrOverflows))
	r.add("net.messages", "count", float64(s.netMessages))
	r.add("net.avg_latency_cycles", "cycles", ratio(float64(s.netLatency), float64(s.netMessages)))

	r.add("trace.wall_s", "s", lt.wall)
	share("trace.unattributed_frac", ratio(lt.unattributed, lt.wall))
	share("trace.overhead_frac", ratio(wallOn, wallOff)-1)
	for _, p := range profPackages {
		share("prof."+p+".frac", prof[p])
	}
}
