// Package faults injects deterministic message-level faults into an
// interconnect: extra delay, duplication, and drops, applied per message
// according to a Plan with every random decision drawn from a splitmix64
// stream. Any (seed, plan) pair therefore replays byte-identically, so a
// fault schedule that exposes a protocol bug is a reproducer, not an
// anecdote.
//
// The injector is an adversarial test of the paper's Section 5.3 claims:
// the directory protocol, hardened with per-request retry (cache side)
// and idempotent request handling (directory side), must keep DRF0
// programs appearing sequentially consistent — Definition 2 — under any
// schedule of delays, duplications, and drop-with-retry.
//
// Faults apply only to messages the hardening covers: the request-class
// coherence messages (GetS, GetX, SyncRead, PutX), selected by the
// Faultable predicate the machine supplies. Replies, invalidations, and
// acknowledgement-phase messages pass through unfaulted — the protocol
// relies on their point-to-point order (e.g. a Data fill delayed past a
// later Inv would silently install a stale shared copy), and since every
// accepted request produces exactly one reply, retrying requests alone
// recovers from any drop. Because faults only ever *add* latency, a
// faulted message can fall behind protected traffic but never overtake
// it, which keeps the protocol's channel-ordering arguments intact.
package faults

import (
	"fmt"
	"strconv"
	"strings"

	"weakorder/internal/metrics"
	"weakorder/internal/network"
	"weakorder/internal/sim"
	"weakorder/internal/splitmix"
)

// Plan is a fault intensity configuration. Probabilities are per
// transmission: a duplicated message rolls drop and delay independently
// for each copy, so duplication also amplifies reordering.
type Plan struct {
	// Drop is the probability a faultable message is discarded.
	Drop float64 `json:"drop,omitempty"`
	// Dup is the probability a faultable message is transmitted twice.
	Dup float64 `json:"dup,omitempty"`
	// Delay is the probability a transmission incurs extra latency.
	Delay float64 `json:"delay,omitempty"`
	// MaxExtraDelay bounds the extra latency: 1..MaxExtraDelay cycles,
	// uniform. Required when Delay > 0.
	MaxExtraDelay sim.Time `json:"maxExtraDelay,omitempty"`
	// DisableRetry disarms the caches' timeout/retry protocol while the
	// faults stay active — a deliberately broken configuration used by
	// tests to prove the liveness diagnostics fire (a dropped request is
	// then lost forever and the machine deadlocks into a LivenessReport).
	DisableRetry bool `json:"disableRetry,omitempty"`
}

// None returns the empty plan (no faults).
func None() Plan { return Plan{} }

// Mild returns a light fault plan: occasional drops and duplicates,
// moderate extra delay.
func Mild() Plan {
	return Plan{Drop: 0.02, Dup: 0.02, Delay: 0.10, MaxExtraDelay: 16}
}

// Severe returns a hostile fault plan: frequent drops, duplicates, and
// large delays.
func Severe() Plan {
	return Plan{Drop: 0.15, Dup: 0.10, Delay: 0.35, MaxExtraDelay: 64}
}

// Parse resolves a plan specification: a preset name ("none", "mild",
// "severe") or a comma-separated custom spec of key=value fields —
// "drop=0.1,dup=0.05,delay=0.2,maxdelay=32,noretry". A custom spec may
// also start with a preset, with later fields overriding it
// ("severe,drop=0.5"). The resulting plan is validated: probabilities
// must lie in [0,1] and delay>0 requires maxdelay>0.
func Parse(name string) (Plan, error) {
	spec := strings.TrimSpace(name)
	plan, perr := parsePreset(spec)
	if perr == nil {
		return plan, nil
	}
	fields := strings.Split(spec, ",")
	start := 0
	if p, err := parsePreset(fields[0]); err == nil {
		plan, start = p, 1
	} else {
		plan = None()
	}
	for _, field := range fields[start:] {
		field = strings.TrimSpace(field)
		key, val, hasVal := strings.Cut(field, "=")
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		switch {
		case key == "noretry" && !hasVal:
			plan.DisableRetry = true
			continue
		case !hasVal || val == "":
			return Plan{}, fmt.Errorf("faults: bad plan field %q (want a preset none/mild/severe, key=value such as drop=0.1, or noretry): plan %q", field, name)
		}
		switch key {
		case "drop", "dup", "delay":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: bad %s probability %q: plan %q", key, val, name)
			}
			switch key {
			case "drop":
				plan.Drop = p
			case "dup":
				plan.Dup = p
			case "delay":
				plan.Delay = p
			}
		case "maxdelay":
			d, err := strconv.ParseUint(val, 10, 32)
			if err != nil || d == 0 {
				return Plan{}, fmt.Errorf("faults: bad maxdelay %q (want a positive cycle count): plan %q", val, name)
			}
			plan.MaxExtraDelay = sim.Time(d)
		default:
			return Plan{}, fmt.Errorf("faults: unknown plan field %q (want drop=, dup=, delay=, maxdelay=, or noretry): plan %q", key, name)
		}
	}
	if plan.Delay > 0 && plan.MaxExtraDelay == 0 {
		return Plan{}, fmt.Errorf("faults: plan %q sets delay without maxdelay", name)
	}
	if err := plan.Validate(); err != nil {
		return Plan{}, fmt.Errorf("%w: plan %q", err, name)
	}
	return plan, nil
}

// parsePreset resolves the three preset names.
func parsePreset(name string) (Plan, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "none":
		return None(), nil
	case "mild":
		return Mild(), nil
	case "severe":
		return Severe(), nil
	default:
		return Plan{}, fmt.Errorf("faults: unknown plan %q (want a preset none/mild/severe or a drop=/dup=/delay=/maxdelay=/noretry spec)", name)
	}
}

// Enabled reports whether the plan perturbs any message.
func (p Plan) Enabled() bool { return p.Drop > 0 || p.Dup > 0 || p.Delay > 0 }

// Validate rejects malformed plans. A NaN probability is outside
// [0,1] too.
func (p Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"Drop", p.Drop}, {"Dup", p.Dup}, {"Delay", p.Delay}} {
		if !(pr.v >= 0 && pr.v <= 1) {
			return fmt.Errorf("faults: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.Delay > 0 && p.MaxExtraDelay == 0 {
		return fmt.Errorf("faults: Delay %v requires MaxExtraDelay > 0", p.Delay)
	}
	return nil
}

// String renders the plan compactly, e.g. "drop=0.02 dup=0.02 delay=0.10(max 16)".
func (p Plan) String() string {
	if !p.Enabled() {
		return "none"
	}
	var parts []string
	if p.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%.2f", p.Drop))
	}
	if p.Dup > 0 {
		parts = append(parts, fmt.Sprintf("dup=%.2f", p.Dup))
	}
	if p.Delay > 0 {
		parts = append(parts, fmt.Sprintf("delay=%.2f(max %d)", p.Delay, p.MaxExtraDelay))
	}
	if p.DisableRetry {
		parts = append(parts, "retry-disabled")
	}
	return strings.Join(parts, " ")
}

// Stats counts injector activity.
type Stats struct {
	// Faultable counts messages eligible for faults.
	Faultable uint64
	// Drops counts discarded transmissions.
	Drops uint64
	// Dups counts duplicated messages.
	Dups uint64
	// Delays counts transmissions given extra latency.
	Delays uint64
	// ExtraDelayCycles sums the added latency.
	ExtraDelayCycles uint64
	// Retries counts resends noted by the caches' retry protocol.
	Retries uint64
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("faultable=%d drops=%d dups=%d delays=%d(+%d cycles) retries=%d",
		s.Faultable, s.Drops, s.Dups, s.Delays, s.ExtraDelayCycles, s.Retries)
}

// Hooks are the machine-supplied classification callbacks, keeping this
// package independent of the protocol's message vocabulary.
type Hooks struct {
	// Faultable selects the messages the plan may perturb. Nil means no
	// message is faultable (the injector becomes a pass-through).
	Faultable func(network.Msg) bool
	// Describe names a message in Track's marks (defaults to %T).
	Describe func(network.Msg) string
	// Track, when non-nil, receives every DROP/DUP/DELAY/RETRY decision
	// as an instant at the decision's time, named like "DROP GetX 1->4",
	// "DELAY GetS 0->2 +12" or "RETRY PutX 0->2 attempt=3". Campaigns
	// leave it nil and pay no formatting.
	Track *metrics.Track
}

// Net wraps an inner Network, applying plan to faultable messages. All
// randomness comes from a splitmix64 stream seeded at construction, and
// the injector is driven only by deterministic kernel events, so a
// (seed, plan) pair fully determines the fault schedule.
type Net struct {
	k     *sim.Kernel
	inner network.Network
	plan  Plan
	rng   splitmix.Stream
	hooks Hooks
	stats Stats
	free  []*delayTask
}

// delayTask is a pooled deferred retransmission: one heap object per
// concurrently delayed message, reused across the run instead of
// allocating a fresh closure for every delay decision.
type delayTask struct {
	n        *Net
	src, dst int
	m        network.Msg
	run      func()
}

// fire recycles the task before forwarding, so the pool slot is free
// even if the send schedules further work.
func (t *delayTask) fire() {
	n, src, dst, m := t.n, t.src, t.dst, t.m
	n.free = append(n.free, t)
	n.inner.Send(src, dst, m)
}

// New wraps inner with the fault plan, seeding the decision stream from
// seed.
func New(k *sim.Kernel, inner network.Network, plan Plan, seed uint64, hooks Hooks) *Net {
	n := &Net{k: k, inner: inner, hooks: hooks}
	n.Reset(plan, seed)
	return n
}

// Reset reprograms the injector in place for a new run: a fresh plan and
// decision-stream seed and zeroed counters. The kernel, inner network,
// and hooks persist — pooled machines reuse one injector across runs. A
// Reset(plan, seed) injector behaves byte-identically to
// New(k, inner, plan, seed, hooks).
func (n *Net) Reset(plan Plan, seed uint64) {
	n.plan = plan
	n.rng.Reseed(seed)
	n.stats = Stats{}
}

// Attach implements network.Network.
func (n *Net) Attach(id int, h network.Handler) { n.inner.Attach(id, h) }

// Send implements network.Network: faultable messages roll duplication
// once and then drop/delay per transmission; everything else passes
// straight through.
func (n *Net) Send(src, dst int, m network.Msg) {
	if n.hooks.Faultable == nil || !n.hooks.Faultable(m) {
		n.inner.Send(src, dst, m)
		return
	}
	n.stats.Faultable++
	n.transmit(src, dst, m)
	if n.plan.Dup > 0 && n.rng.Float64() < n.plan.Dup {
		n.stats.Dups++
		n.mark("DUP", src, dst, m, 0)
		n.transmit(src, dst, m)
	}
}

// transmit applies drop and delay to one copy of a message.
func (n *Net) transmit(src, dst int, m network.Msg) {
	if n.plan.Drop > 0 && n.rng.Float64() < n.plan.Drop {
		n.stats.Drops++
		n.mark("DROP", src, dst, m, 0)
		return
	}
	if n.plan.Delay > 0 && n.rng.Float64() < n.plan.Delay {
		extra := sim.Time(1 + n.rng.Uint64n(uint64(n.plan.MaxExtraDelay)))
		n.stats.Delays++
		n.stats.ExtraDelayCycles += uint64(extra)
		n.mark("DELAY", src, dst, m, uint64(extra))
		var t *delayTask
		if k := len(n.free); k > 0 {
			t = n.free[k-1]
			n.free = n.free[:k-1]
		} else {
			t = &delayTask{n: n}
			t.run = t.fire
		}
		t.src, t.dst, t.m = src, dst, m
		n.k.After(extra, t.run)
		return
	}
	n.inner.Send(src, dst, m)
}

// NoteRetry records a retry-protocol resend in the stats and on the
// track. The resend itself travels through Send like any message (and
// may be faulted again).
func (n *Net) NoteRetry(src, dst int, m network.Msg, attempt int) {
	n.stats.Retries++
	n.mark("RETRY", src, dst, m, uint64(attempt))
}

// Stats implements network.Network (traffic statistics of the inner
// network; see FaultStats for injector counters).
func (n *Net) Stats() network.Stats { return n.inner.Stats() }

// Err implements network.Network.
func (n *Net) Err() error { return n.inner.Err() }

// FaultStats returns the injector's counters.
func (n *Net) FaultStats() Stats { return n.stats }

// mark records one decision on the hooks' track: extra is the added
// latency of a DELAY and the attempt number of a RETRY.
func (n *Net) mark(kind string, src, dst int, m network.Msg, extra uint64) {
	if n.hooks.Track == nil {
		return
	}
	var msg string
	if n.hooks.Describe != nil {
		msg = n.hooks.Describe(m)
	} else {
		msg = fmt.Sprintf("%T", m)
	}
	name := fmt.Sprintf("%s %s %d->%d", kind, msg, src, dst)
	switch kind {
	case "DELAY":
		name += fmt.Sprintf(" +%d", extra)
	case "RETRY":
		name += fmt.Sprintf(" attempt=%d", extra)
	}
	n.hooks.Track.Mark(name, n.k.Now())
}

// Compile-time interface check.
var _ network.Network = (*Net)(nil)
