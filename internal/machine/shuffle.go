package machine

import (
	"math"
	"math/rand"
)

// The arbitration stream is math/rand's: rand.NewSource(seed ^ 0x5eed),
// drawn as (*rand.Rand).Shuffle draws it. That source is an additive
// lagged-Fibonacci generator with lags 607 and 273 over a 607-word
// register: it adds mod 2^64 and Int63 returns the low 63 bits. A carry
// never moves down, so the outputs obey the same recurrence mod 2^63 by
// themselves: once 607 have been drawn, output n is output n-607 plus
// output n-273. The arbiter therefore keeps a ring of the outputs already
// drawn and never holds a rand.Source.
//
// The first 607 outputs are each one register word plus either a second
// word or output n-273, and Seed fills each word from three steps of a
// Lehmer generator mod 2^31-1 started at the reduced seed. Step m from s
// is s·48271^m mod 2^31-1, so a word is a closed-form function of the
// seed: seed only reduces the seed, and a draw computes the words it
// adds on demand. A run that draws little pays little, where Seed
// always runs all 1,841 steps.
const (
	ringLen  = 607  // the generator's long lag
	ringTap  = 273  // its short lag
	ringSize = 1024 // ring slots: a power of two, so the lags index by mask

	lehmerMod = 1<<31 - 1 // the seeding generator's modulus, a Mersenne prime
)

// seedWords holds, for each register word k, the three powers of the
// seeding generator's multiplier that Seed applies to the reduced seed
// to make it (48271^(3k+21+j) mod 2^31-1 for j = 0, 1, 2: Seed discards
// the first 20 steps) and the constant it then XORs in, which math/rand
// does not export. Both are built once, from math/rand, at init.
var seedWords [ringLen]struct {
	pow    [3]uint64
	cooked int64
}

func init() {
	p := uint64(1)
	for m := 1; m <= 3*ringLen+20; m++ {
		p = lehmerMul(p, 48271)
		if m > 20 {
			seedWords[(m-21)/3].pow[(m-21)%3] = p
		}
	}
	// Recover the register of rand.NewSource(1) from its first ringLen
	// outputs by undoing the additions that made them (see first), then
	// take away each word's Lehmer part: seed 1 reduces to s = 1, and
	// while the cooked constants are still zero, word returns exactly
	// that part.
	src := rand.NewSource(1).(rand.Source64)
	var out, vec [ringLen]int64
	for n := range out {
		out[n] = int64(src.Uint64())
	}
	for n := ringTap; n < ringLen; n++ {
		vec[feedIndex(n)] = out[n] - out[n-ringTap]
	}
	for n := 0; n < ringTap; n++ {
		vec[feedIndex(n)] = out[n] - vec[ringLen-1-n]
	}
	one := arbiter{s: 1}
	for k := range seedWords {
		seedWords[k].cooked = vec[k] ^ one.word(k)
	}
}

// lehmerMul returns a·b mod 2^31-1 for a, b in [1, 2^31-2], folding the
// product's high bits onto its low ones instead of dividing. The fold
// leaves at most 2^32-2, so one subtraction reduces it.
func lehmerMul(a, b uint64) uint64 {
	x := a * b
	x = x&lehmerMod + x>>31
	if x >= lehmerMod {
		x -= lehmerMod
	}
	return x
}

// feedIndex is the register word that output n < ringLen adds to: the
// source's feed index starts at ringLen-ringTap and counts down.
func feedIndex(n int) int {
	if n < ringLen-ringTap {
		return ringLen - ringTap - 1 - n
	}
	return 2*ringLen - ringTap - 1 - n
}

// arbiter draws each cycle's arbitration order.
type arbiter struct {
	s    uint64          // the reduced seed, as Seed reduces it
	ring [ringSize]int64 // output k is in ring[k%ringSize]
	n    uint64          // outputs drawn since the seed
}

// seed rewinds the arbiter to the start of the machine seed's stream.
func (a *arbiter) seed(seed int64) {
	s := (seed ^ 0x5eed) % lehmerMod
	if s < 0 {
		s += lehmerMod
	}
	if s == 0 {
		s = 89482311
	}
	a.s = uint64(s)
	a.n = 0
}

// word is register word k of the seeded source: three Lehmer steps
// from the reduced seed, shifted together, XOR the cooked constant.
func (a *arbiter) word(k int) int64 {
	w := &seedWords[k]
	return int64(lehmerMul(a.s, w.pow[0]))<<40 ^ int64(lehmerMul(a.s, w.pow[1]))<<20 ^
		int64(lehmerMul(a.s, w.pow[2])) ^ w.cooked
}

// first computes output n < ringLen. Output n adds the word at its feed
// index to its tap: word ringLen-1-n while n < ringTap, and after that
// the word the feed replaced ringTap draws earlier, which is output
// n-ringTap, already in the ring.
func (a *arbiter) first(n int) int64 {
	var tap int64
	if n < ringTap {
		tap = a.word(ringLen - 1 - n)
	} else {
		tap = a.ring[n-ringTap]
	}
	return (a.word(feedIndex(n)) + tap) & math.MaxInt64
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
		// Draw output n: from the register words until the ring holds
		// ringLen outputs, then from the ring.
		var v int64
		if n < ringLen {
			v = a.first(int(n))
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
