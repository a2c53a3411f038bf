package cache

import (
	"fmt"
	"slices"
	"testing"

	"weakorder/internal/mem"
	"weakorder/internal/network"
	"weakorder/internal/sim"
)

// lossyNet drops the first transmission of every distinct request-class
// message and delivers everything else: the harshest single-drop
// adversary, forcing every request through the retry protocol exactly
// once.
type lossyNet struct {
	network.Network
	seen  map[string]bool
	drops int
}

func (ln *lossyNet) Send(src, dst int, m network.Msg) {
	if Faultable(m) {
		key := fmt.Sprintf("%d->%d %#v", src, dst, m)
		if !ln.seen[key] {
			ln.seen[key] = true
			ln.drops++
			return
		}
	}
	ln.Network.Send(src, dst, m)
}

// dupNet delivers every request-class message twice, immediately.
type dupNet struct {
	network.Network
	dups int
}

func (dn *dupNet) Send(src, dst int, m network.Msg) {
	dn.Network.Send(src, dst, m)
	if Faultable(m) {
		dn.dups++
		dn.Network.Send(src, dst, m)
	}
}

// retryRig assembles caches and a directory over a wrapped network and
// pumps cycles with the machine's per-cycle CheckTimeouts polling.
type retryRig struct {
	k      *sim.Kernel
	caches []*Cache
	dir    *Directory
	busy   *BusySet // when set, checked against the caches every cycle
}

func newRetryRig(t *testing.T, n int, wrap func(network.Network) network.Network, cacheCfg func(*Config)) *retryRig {
	t.Helper()
	k := &sim.Kernel{}
	var net network.Network = network.NewGeneral(k, network.GeneralConfig{BaseLatency: 2, OrderedPairs: true, Seed: 1})
	if wrap != nil {
		net = wrap(net)
	}
	r := &retryRig{k: k}
	home := func(a mem.Addr) int { return n }
	r.dir = NewDirectory(k, net, DirConfig{ID: n, NumProcs: n, Latency: 1})
	for i := 0; i < n; i++ {
		cfg := Config{ID: i, Home: home, HitLatency: 1, RetryTimeout: 20}
		if cacheCfg != nil {
			cacheCfg(&cfg)
		}
		r.caches = append(r.caches, New(k, net, cfg))
	}
	return r
}

func (r *retryRig) settle(t *testing.T) {
	t.Helper()
	for cycle := uint64(1); cycle < 100_000; cycle++ {
		r.k.AdvanceTo(sim.Time(cycle))
		r.checkBusySet(t)
		busy := r.k.Pending() > 0
		for _, c := range r.caches {
			c.CheckTimeouts(r.k.Now())
			if c.Busy() {
				busy = true
			}
		}
		if !busy && r.k.Pending() == 0 {
			return
		}
	}
	t.Fatal("retry rig did not settle within 100000 cycles")
}

// checkBusySet requires r.busy to list, in ascending order, exactly the
// caches with an in-flight transaction or writeback.
func (r *retryRig) checkBusySet(t *testing.T) {
	t.Helper()
	if r.busy == nil {
		return
	}
	var want []int
	for i, c := range r.caches {
		if len(c.PendingLines())+len(c.WritebackLines()) > 0 {
			want = append(want, i)
		}
	}
	if got := r.busy.IDs(); !slices.Equal(got, want) {
		t.Fatalf("busy set %v, want %v", got, want)
	}
}

func (r *retryRig) doOp(t *testing.T, c int, kind mem.Kind, addr mem.Addr, data mem.Value) mem.Value {
	t.Helper()
	var got mem.Value
	committed := false
	r.caches[c].Issue(&Req{
		Kind: kind, Addr: addr, Data: data,
		OnCommit: func(v mem.Value) { got = v; committed = true },
	})
	r.settle(t)
	if !committed {
		t.Fatalf("cache %d: %v on %d did not commit", c, kind, addr)
	}
	return got
}

// Every first transmission dropped: retry must recover every request —
// GetS, GetX, upgrades, and PutX writebacks — with no transaction lost.
func TestRetryRecoversFromDrops(t *testing.T) {
	var ln *lossyNet
	r := newRetryRig(t, 2, func(inner network.Network) network.Network {
		ln = &lossyNet{Network: inner, seen: make(map[string]bool)}
		return ln
	}, nil)
	r.dir.SetInit(1, 11)

	if v := r.doOp(t, 0, mem.Read, 1, 0); v != 11 {
		t.Fatalf("read = %d, want 11", v)
	}
	r.doOp(t, 0, mem.Write, 1, 77) // upgrade GetX, first copy dropped
	if v := r.doOp(t, 1, mem.Read, 1, 0); v != 77 {
		t.Fatalf("remote read = %d, want 77", v)
	}
	r.doOp(t, 1, mem.SyncRMW, 2, 1) // sync GetX on a fresh line

	if ln.drops == 0 {
		t.Fatal("lossy network dropped nothing; test is vacuous")
	}
	var retries uint64
	for _, c := range r.caches {
		retries += c.Stats().Retries
	}
	if retries == 0 {
		t.Fatal("no retries recorded despite drops")
	}
	for i, c := range r.caches {
		if c.Busy() {
			t.Fatalf("cache %d still busy after settle", i)
		}
	}
}

// The busy set follows every cache's MSHR and writeback lists through
// misses, upgrades, evictions, dropped-and-retried requests and Reset.
func TestBusySetTracksOutstanding(t *testing.T) {
	r := newRetryRig(t, 3, func(inner network.Network) network.Network {
		return &lossyNet{Network: inner, seen: make(map[string]bool)}
	}, func(cfg *Config) { cfg.Capacity = 1 })
	r.busy = &BusySet{}
	for _, c := range r.caches {
		c.TrackBusy(r.busy)
	}
	for i, c := range r.caches {
		c.Issue(&Req{Kind: mem.Write, Addr: mem.Addr(i), Data: 1})
		c.Issue(&Req{Kind: mem.Write, Addr: mem.Addr(i + 3), Data: 2}) // evicts: PutX
	}
	r.k.AdvanceTo(r.k.Now() + 1)
	r.checkBusySet(t)
	if len(r.busy.IDs()) != 3 {
		t.Fatalf("busy set %v after every cache missed, want all three", r.busy.IDs())
	}
	r.settle(t)
	r.checkBusySet(t)
	r.doOp(t, 1, mem.Read, 0, 0)
	r.caches[2].Issue(&Req{Kind: mem.Read, Addr: 1})
	r.caches[2].Reset(20, 0)
	r.checkBusySet(t)
}

// Dropped PutX: the writeback retries until the WBAck arrives and the
// written-back value is not lost.
func TestRetryRecoversDroppedWriteback(t *testing.T) {
	var ln *lossyNet
	r := newRetryRig(t, 1, func(inner network.Network) network.Network {
		ln = &lossyNet{Network: inner, seen: make(map[string]bool)}
		return ln
	}, func(cfg *Config) { cfg.Capacity = 1 })

	r.doOp(t, 0, mem.Write, 4, 40)
	r.doOp(t, 0, mem.Write, 5, 50) // evicts line 4: PutX dropped, retried
	r.settle(t)
	if len(r.caches[0].WritebackLines()) != 0 {
		t.Fatalf("writeback still pending: %v", r.caches[0].WritebackLines())
	}
	if got := r.dir.MemValue(4); got != 40 {
		t.Fatalf("memory value after recovered writeback = %d, want 40", got)
	}
	if ln.drops == 0 {
		t.Fatal("no drops; test is vacuous")
	}
}

// Every request delivered twice: the directory must absorb duplicates
// without re-running state transitions (a re-run GetX would forward
// ownership to a requester that is no longer waiting and wedge or
// corrupt the line).
func TestDirectoryAbsorbsDuplicates(t *testing.T) {
	var dn *dupNet
	r := newRetryRig(t, 2, func(inner network.Network) network.Network {
		dn = &dupNet{Network: inner}
		return dn
	}, nil)
	r.dir.SetInit(3, 30)

	if v := r.doOp(t, 0, mem.Read, 3, 0); v != 30 {
		t.Fatalf("read = %d, want 30", v)
	}
	r.doOp(t, 1, mem.Write, 3, 99)                  // GetX ×2: one absorbed
	if v := r.doOp(t, 0, mem.Read, 3, 0); v != 99 { // fwd to owner path
		t.Fatalf("read after remote write = %d, want 99", v)
	}

	if dn.dups == 0 {
		t.Fatal("no duplicates injected; test is vacuous")
	}
	if d := r.dir.Stats().Duplicates; d == 0 {
		t.Fatal("directory absorbed no duplicates despite dupNet")
	}
	if ds, owner, _ := r.dir.State(3); ds != DirShared && !(ds == DirExclusive && owner >= 0) {
		t.Fatalf("directory line corrupted: state %v owner %d", ds, owner)
	}
}

// A retry of a request the directory had merely queued (busy line) is a
// spurious duplicate and must be absorbed, not double-served.
func TestSpuriousRetryOfQueuedRequestAbsorbed(t *testing.T) {
	r := newRetryRig(t, 3, nil, func(cfg *Config) {
		cfg.RetryTimeout = 4 // aggressive: fires while requests queue
	})
	// Three caches hammer the same line: transactions serialize at the
	// directory, so some requests queue long enough to time out.
	var done int
	for i := 0; i < 3; i++ {
		r.caches[i].Issue(&Req{
			Kind: mem.SyncRMW, Addr: 9, Data: mem.Value(i + 1),
			OnCommit: func(mem.Value) { done++ },
		})
	}
	r.settle(t)
	if done != 3 {
		t.Fatalf("%d/3 contended RMWs committed", done)
	}
	var retries uint64
	for _, c := range r.caches {
		retries += c.Stats().Retries
	}
	if retries == 0 {
		t.Skip("no spurious retries fired at this timing; invariant not exercised")
	}
	if r.dir.Stats().Duplicates == 0 {
		t.Fatal("spurious retries were re-served instead of absorbed")
	}
}
