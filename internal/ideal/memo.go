package ideal

import (
	"bytes"
	"hash/maphash"
	"slices"
	"sync"
)

// memo records, for every state the reducer has fully explored, the
// sleep sets it was explored under. Keys are exact byte strings: a
// key's hash only places its entries in an open-addressed table, and a
// lookup compares the bytes, so two states share a visit only when
// their keys are equal. Keys are copied into chunks that never move and
// entries into one slice, so recording a state allocates nothing of its
// own, growing the table rehashes no key, and nothing the collector
// must trace is made per state. The storage outlives a walk: Enumerate
// takes a memo with getMemo and returns it with putMemo.
type memo struct {
	seed   maphash.Seed
	slots  []int32 // entry index + 1 by key hash, linear probing; 0 is empty
	ents   []memoEntry
	chunks [][]byte
	cur    int // the chunk keys are copied into
}

// memoEntry is one visit: a state's key and the sleep set it was
// explored under. A revisit under a sleep set no earlier visit covers
// adds an entry that shares the key's bytes.
type memoEntry struct {
	hash       uint64
	sleep      uint64
	chunk, off int32
	n          int32
}

const (
	memoSlots    = 16     // initial table size, a power of two
	memoChunkMin = 1 << 8 // first key chunk; each new one doubles
	memoChunkMax = 1 << 16
	// memoKeep bounds the entries of a memo returned to memos, so that
	// one huge walk does not pin its storage under every later small
	// one. A bounded campaign walk (100,000 steps) stays under it.
	memoKeep = 1 << 17
)

// memos recycles memo storage across enumerations: a campaign makes
// thousands of small walks, and the entries, key chunks and table of a
// fresh memo per walk were most of what a walk allocated.
var memos = sync.Pool{New: func() any {
	return &memo{seed: maphash.MakeSeed(), chunks: [][]byte{make([]byte, 0, memoChunkMin)}}
}}

// getMemo returns an empty memo, reusing the storage of an earlier walk
// when the pool has one.
func getMemo() *memo {
	m := memos.Get().(*memo)
	m.reset()
	return m
}

// putMemo returns m's storage for a later walk, unless it grew past
// memoKeep entries.
func putMemo(m *memo) {
	if len(m.ents) <= memoKeep {
		memos.Put(m)
	}
}

// reset empties m for another walk, keeping its storage. The table
// restarts at its initial size, so a small walk after a large one
// clears only what it uses.
func (m *memo) reset() {
	m.slots = slices.Grow(m.slots[:0], memoSlots)[:memoSlots]
	clear(m.slots)
	m.ents = m.ents[:0]
	m.cur = 0
	m.chunks[0] = m.chunks[0][:0]
}

// covered reports whether key was already explored under a sleep set
// contained in sleep. If it was not, covered records the visit under
// sleep before returning false.
func (m *memo) covered(key []byte, sleep uint64) bool {
	h := maphash.Bytes(m.seed, key)
	mask := len(m.slots) - 1
	e := memoEntry{hash: h, sleep: sleep, chunk: -1, n: int32(len(key))}
	i := int(h) & mask
	for ; m.slots[i] != 0; i = (i + 1) & mask {
		old := &m.ents[m.slots[i]-1]
		if old.hash != h || !bytes.Equal(m.key(old), key) {
			continue
		}
		if old.sleep&^sleep == 0 {
			return true
		}
		e.chunk, e.off = old.chunk, old.off
	}
	if e.chunk < 0 {
		e.chunk, e.off = m.store(key)
	}
	m.ents = append(m.ents, e)
	m.slots[i] = int32(len(m.ents))
	if 2*len(m.ents) > len(m.slots) {
		m.grow()
	}
	return false
}

func (m *memo) key(e *memoEntry) []byte {
	return m.chunks[e.chunk][e.off : e.off+e.n]
}

// store copies key into the current chunk, moving on to the next, larger
// one when it does not fit.
func (m *memo) store(key []byte) (chunk, off int32) {
	if c := m.chunks[m.cur]; len(c)+len(key) > cap(c) {
		size := max(min(2*cap(c), memoChunkMax), len(key))
		m.cur++
		if m.cur == len(m.chunks) {
			m.chunks = append(m.chunks, nil)
		}
		if cap(m.chunks[m.cur]) < size {
			m.chunks[m.cur] = make([]byte, 0, size)
		}
		m.chunks[m.cur] = m.chunks[m.cur][:0]
	}
	off = int32(len(m.chunks[m.cur]))
	m.chunks[m.cur] = append(m.chunks[m.cur], key...)
	return int32(m.cur), off
}

// grow doubles the table, placing every entry by its stored hash.
func (m *memo) grow() {
	n := 2 * len(m.slots)
	m.slots = slices.Grow(m.slots[:0], n)[:n]
	clear(m.slots)
	mask := len(m.slots) - 1
	for k := range m.ents {
		i := int(m.ents[k].hash) & mask
		for m.slots[i] != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = int32(k + 1)
	}
}
