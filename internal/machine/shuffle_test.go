package machine

import (
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

// The arbitration shuffle must be math/rand's Shuffle draw for draw: same
// permutation, and the source left at the same point, so every later
// cycle's arbitration (and every run) is unchanged.
func TestShuffleMatchesMathRand(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 20
	}
	for n := 0; n <= 300; n++ {
		for seed := int64(0); seed < seeds; seed++ {
			want := identity(n)
			ref := rand.New(rand.NewSource(seed))
			ref.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })

			got := identity(n)
			src := rand.NewSource(seed)
			shuffle(src, got)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d seed=%d: permutation %v, want %v", n, seed, got, want)
			}
			for k := 0; k < 8; k++ {
				if g, w := src.Int63(), ref.Int63(); g != w {
					t.Fatalf("n=%d seed=%d: draw %d after the shuffle is %d, want %d", n, seed, k, g, w)
				}
			}
		}
	}
}

// scriptSource replays fixed Int63 values and counts the draws.
type scriptSource struct {
	vals  []int64
	draws int
}

func (s *scriptSource) Int63() int64 {
	v := s.vals[s.draws%len(s.vals)]
	s.draws++
	return v
}

func (s *scriptSource) Seed(int64) {}

// Seeded sources almost never hit int31n's rejection loop. A zero draw
// forces it: for n=3 the product's low word 0 is below the threshold
// (2^32 mod 3 = 1), so the draw is discarded and the next one used.
func TestShuffleRejectionBranch(t *testing.T) {
	script := []int64{0, 5 << 40, 0, 0, 1 << 62, 7 << 33, 3 << 50}
	for n := 0; n <= 8; n++ {
		want := identity(n)
		ref := &scriptSource{vals: script}
		rand.New(ref).Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })

		got := identity(n)
		src := &scriptSource{vals: script}
		shuffle(src, got)
		if !slices.Equal(got, want) || src.draws != ref.draws {
			t.Fatalf("n=%d: permutation %v after %d draws, want %v after %d", n, got, src.draws, want, ref.draws)
		}
		if n == 3 && src.draws <= n-1 {
			t.Fatalf("n=3: %d draws for %d swaps; the rejection branch was not taken", src.draws, n-1)
		}
	}
}
