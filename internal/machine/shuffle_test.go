package machine

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// identity returns 0, 1, ..., n-1.
func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// countingSource counts the draws of the source it wraps.
type countingSource struct {
	rand.Source
	draws int
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.Source.Int63()
}

// next draws the arbiter's next output: a walk over two processors
// takes exactly one draw, since int31n(2) never rejects.
func (a *arbiter) next() int64 {
	var order [2]int
	n := a.n
	a.shuffle(order[:], nil, nil)
	return a.ring[n%ringSize]
}

// refWalk is the reference for one arbiter walk: math/rand's Shuffle of
// want, and the processors marked in live in the resulting order.
func refWalk(ref *rand.Rand, want []int, live []bool) (liveOrder []int) {
	ref.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	for _, p := range want {
		if live[p] {
			liveOrder = append(liveOrder, p)
		}
	}
	return liveOrder
}

// The arbiter must be math/rand, draw for draw: each walk leaves the
// same permutation as rand.Rand.Shuffle, its live order is that
// permutation's live processors, and the draws that follow are the
// source's. Consecutive walks run until the 607-draw ring fill has ended
// (mid-walk for every n from 3 on, as 607 is prime) and one whole walk
// has run on the ring.
func TestArbiterMatchesMathRand(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 6
	}
	for n := 0; n <= 300; n++ {
		for seed := int64(0); seed < seeds; seed++ {
			pick := rand.New(rand.NewSource(seed*1000 + int64(n)))
			live := make([]bool, n)
			nLive := 0
			for i := range live {
				if live[i] = pick.Intn(4) == 0; live[i] {
					nLive++
				}
			}
			refSrc := &countingSource{Source: rand.NewSource(seed ^ 0x5eed)}
			ref := rand.New(refSrc)
			var a arbiter
			a.seed(seed)
			want, got := identity(n), identity(n)
			act := make([]int, nLive)
			for walk := 0; walk == 0 || refSrc.draws <= ringLen+n; walk++ {
				wantLive := refWalk(ref, want, live)
				a.shuffle(got, live, act)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d seed=%d walk %d: permutation %v, want %v", n, seed, walk, got, want)
				}
				if !slices.Equal(act, wantLive) {
					t.Fatalf("n=%d seed=%d walk %d: live order %v, want %v", n, seed, walk, act, wantLive)
				}
				if n < 2 {
					break // a walk of fewer than two draws nothing
				}
			}
			if a.n != uint64(refSrc.draws) {
				t.Fatalf("n=%d seed=%d: %d draws, want %d", n, seed, a.n, refSrc.draws)
			}
			for k := 0; k < 8; k++ {
				if g, w := a.next(), ref.Int63(); g != w {
					t.Fatalf("n=%d seed=%d: draw %d after the walks is %d, want %d", n, seed, k, g, w)
				}
			}
		}
	}
}

// The arbiter reduces the seed as math/rand's Seed does: mod 2^31-1
// with a negative remainder lifted, and 0 replaced by 89482311. These
// seeds reach each branch once XORed with 0x5eed (0, the modulus and
// the replacement itself), along with negative seeds, seeds of 2^31 and
// more, the extremes and the two machine seeds that wedge WO-Def2+RO on
// the network. Each stream must be math/rand's for 3,000 draws, well
// past the 607 drawn from the register words.
func TestArbiterSeedReduction(t *testing.T) {
	for _, seed := range []int64{
		0x5eed, (1<<31 - 1) ^ 0x5eed, 89482311 ^ 0x5eed,
		-1, 1 << 40, -1 << 40,
		math.MinInt64, math.MaxInt64,
		5220603417673261993, 8521715790124684172,
	} {
		ref := rand.NewSource(seed ^ 0x5eed)
		var a arbiter
		a.seed(seed)
		for k := 0; k < 3000; k++ {
			if g, w := a.next(), ref.Int63(); g != w {
				t.Fatalf("seed %d: draw %d is %d, want %d", seed, k, g, w)
			}
		}
	}
}

// Seeded walks seldom take int31n's rejection branch, but a walk at
// n = 1<<16 does on about a quarter of seeds, almost always on a draw the
// ring made: the extra draw must be the source's, and the permutation
// and the following draws unchanged.
func TestArbiterRejectionOnRing(t *testing.T) {
	const n = 1 << 16
	rejected := 0
	for seed := int64(0); seed < 16; seed++ {
		want, got := identity(n), identity(n)
		refSrc := &countingSource{Source: rand.NewSource(seed ^ 0x5eed)}
		firstExtra := 0 // the draw that the first rejection discarded
		rand.New(refSrc).Shuffle(n, func(i, j int) {
			if firstExtra == 0 && refSrc.draws > n-i {
				firstExtra = n - i
			}
			want[i], want[j] = want[j], want[i]
		})
		var a arbiter
		a.seed(seed)
		a.shuffle(got, nil, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: permutation differs from math/rand's", seed)
		}
		if a.n != uint64(refSrc.draws) {
			t.Fatalf("seed %d: %d draws, want %d", seed, a.n, refSrc.draws)
		}
		if firstExtra > ringLen {
			t.Logf("seed %d: draw %d rejected, %d extra draws", seed, firstExtra, refSrc.draws-(n-1))
			rejected++
		}
		for k := 0; k < 8; k++ {
			if g, w := a.next(), refSrc.Int63(); g != w {
				t.Fatalf("seed %d: draw %d after the walk is %d, want %d", seed, k, g, w)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no seed took the rejection branch after the ring filled")
	}
}
