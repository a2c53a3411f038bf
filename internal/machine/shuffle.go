package machine

import (
	"math"
	"math/rand"
)

// The arbitration stream is math/rand's: rand.NewSource(seed ^ 0x5eed),
// drawn as (*rand.Rand).Shuffle draws it. That source is an additive
// lagged-Fibonacci generator with lags 607 and 273: it adds mod 2^64 and
// Int63 returns the low 63 bits. A carry never moves down, so the
// outputs obey the same recurrence mod 2^63 by themselves: once 607 have
// been drawn, output n is output n-607 plus output n-273. The arbiter
// therefore takes only the first 607 outputs from the source and makes
// every later one from a ring of the outputs already drawn, with no call
// through the rand.Source interface.
const (
	ringLen  = 607  // the generator's long lag
	ringTap  = 273  // its short lag
	ringSize = 1024 // ring slots: a power of two, so the lags index by mask
)

// arbiter draws each cycle's arbitration order.
type arbiter struct {
	src  rand.Source
	ring [ringSize]int64 // output k is in ring[k%ringSize]
	n    uint64          // outputs drawn since the seed
}

// seed rewinds the arbiter to the start of the machine seed's stream.
func (a *arbiter) seed(seed int64) {
	if a.src == nil {
		a.src = rand.NewSource(seed ^ 0x5eed)
	} else {
		a.src.Seed(seed ^ 0x5eed)
	}
	a.n = 0
}

// shuffle permutes order in place exactly as
// rand.New(src).Shuffle(len(order), swap) would: the same Fisher–Yates
// walk over the same draws, so runs keep math/rand's arbitration.
// len(order) must stay below 1<<31 (Shuffle switches to Int63n above
// that).
//
// The walk also lists the processors marked in live in their final
// order: act must have one slot per live processor, and each is written
// once the walk has fixed its position. A nil act skips the listing.
func (a *arbiter) shuffle(order []int, live []bool, act []int) {
	ring, n := &a.ring, a.n
	k := len(act) // live processors not yet placed
	for i := len(order) - 1; i > 0; {
		// Draw output n: from the source until the ring holds ringLen
		// outputs, then from the ring.
		var v int64
		if n < ringLen {
			v = a.src.Int63()
		} else {
			v = (ring[(n-ringLen)%ringSize] + ring[(n-ringTap)%ringSize]) & math.MaxInt64
		}
		ring[n%ringSize] = v
		n++
		// math/rand's int31n(i+1): Lemire's multiply-shift reduction of
		// the draw's top 32 bits, drawing again on a biased low product.
		bound := uint32(i + 1)
		prod := uint64(uint32(v>>31)) * uint64(bound)
		if low := uint32(prod); low < bound && low < -bound%bound {
			continue
		}
		j := int(prod >> 32)
		p := order[j]
		order[j] = order[i]
		order[i] = p
		if k > 0 && live[p] {
			k--
			act[k] = p
		}
		i--
	}
	a.n = n
	if k > 0 { // the one live processor left can only be at position 0
		act[0] = order[0]
	}
}
