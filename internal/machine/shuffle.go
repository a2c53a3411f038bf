package machine

import "math/rand"

// shuffle permutes order in place exactly as
// rand.New(src).Shuffle(len(order), swap) would — the same Fisher–Yates
// walk over the same draws, so runs keep math/rand's arbitration — but
// without a call through a swap closure per element. len(order) must
// stay below 1<<31 (Shuffle switches to Int63n above that).
func shuffle(src rand.Source, order []int) {
	for i := len(order) - 1; i > 0; i-- {
		j := int31n(src, int32(i+1))
		order[i], order[j] = order[j], order[i]
	}
}

// int31n is math/rand's unexported (*Rand).int31n: Lemire's
// multiply-shift reduction of Uint32 (the top 32 of Int63's 63 bits),
// rejecting the biased low products.
func int31n(src rand.Source, n int32) int32 {
	prod := uint64(uint32(src.Int63()>>31)) * uint64(n)
	if low := uint32(prod); low < uint32(n) {
		thresh := uint32(-n) % uint32(n)
		for low < thresh {
			prod = uint64(uint32(src.Int63()>>31)) * uint64(n)
			low = uint32(prod)
		}
	}
	return int32(prod >> 32)
}
