// Package bitset holds the processor-ID sets shared by the two runners
// (internal/sim, and internal/event over the flat kernel): a plain
// one-level set for per-step scratch and round accounting, and a two-level
// hierarchical set with a maintained population count for the enabled-set
// index.
//
// Every operation is allocation-free after construction, and the per-ID
// operations are small enough to inline across the package boundary (check
// with go build -gcflags=-m ./internal/bitset/), so a committed engine step
// touches no heap and pays no call overhead for its bookkeeping.
package bitset

import "math/bits"

// Bits is a fixed-capacity set of IDs backed by []uint64 words.
type Bits []uint64

// New returns an empty set able to hold IDs in [0, n).
func New(n int) Bits { return make(Bits, (n+63)/64) }

// Test reports whether i is in the set.
//
//snapvet:hotpath
func (b Bits) Test(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set adds i to the set.
//
//snapvet:hotpath
func (b Bits) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes i from the set.
//
//snapvet:hotpath
func (b Bits) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Reset empties the set.
//
//snapvet:hotpath
func (b Bits) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// CopyFrom overwrites the set with src (same capacity).
//
//snapvet:hotpath
func (b Bits) CopyFrom(src Bits) { copy(b, src) }

// Count returns the number of IDs in the set.
//
//snapvet:hotpath
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// IntersectAndNot computes b = b ∩ keep ∖ drop in place and reports whether
// the result is empty. It is the generic runner's round-accounting update: a
// pending processor leaves the round when it executes (drop) or becomes
// disabled (leaves keep).
//
//snapvet:hotpath
func (b Bits) IntersectAndNot(keep, drop Bits) bool {
	empty := true
	for i := range b {
		b[i] &= keep[i] &^ drop[i]
		if b[i] != 0 {
			empty = false
		}
	}
	return empty
}

// ForEach calls fn for every ID in the set in ascending order.
//
//snapvet:hotpath
func (b Bits) ForEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Hier is a two-level hierarchical set with a maintained population count.
// Level 0 is one bit per ID; the summary level is one bit per level-0 word.
// It indexes the enabled set: at large N an engine must enumerate the
// enabled processors in ascending order every time its choice buffer is
// rebuilt, and a one-level scan is Θ(N/64) even when only a handful of
// processors are enabled. The summary skips empty level-0 regions, making
// enumeration O(summary words + |set|) — at N = 10⁶ with a near-terminal
// configuration that is ~250 word reads instead of ~16k.
type Hier struct {
	l0  Bits     // one bit per ID
	sum []uint64 // one bit per l0 word
	n   int      // population count
}

// NewHier returns an empty hierarchical set able to hold IDs in [0, n).
func NewHier(n int) *Hier {
	words := (n + 63) / 64
	return &Hier{
		l0:  make(Bits, words),
		sum: make([]uint64, (words+63)/64),
	}
}

// Test reports whether i is in the set.
//
//snapvet:hotpath
func (h *Hier) Test(i int) bool { return h.l0.Test(i) }

// Set adds i to the set.
//
//snapvet:hotpath
func (h *Hier) Set(i int) {
	w := i >> 6
	mask := uint64(1) << (uint(i) & 63)
	if h.l0[w]&mask != 0 {
		return
	}
	h.l0[w] |= mask
	h.sum[w>>6] |= 1 << (uint(w) & 63)
	h.n++
}

// Clear removes i from the set.
//
//snapvet:hotpath
func (h *Hier) Clear(i int) {
	w := i >> 6
	mask := uint64(1) << (uint(i) & 63)
	if h.l0[w]&mask == 0 {
		return
	}
	h.l0[w] &^= mask
	if h.l0[w] == 0 {
		h.sum[w>>6] &^= 1 << (uint(w) & 63)
	}
	h.n--
}

// Count returns the number of IDs in the set.
//
//snapvet:hotpath
func (h *Hier) Count() int { return h.n }

// ForEach calls fn for every ID in the set in ascending order, skipping
// empty level-0 words via the summary.
//
//snapvet:hotpath
func (h *Hier) ForEach(fn func(i int)) {
	for si, sw := range h.sum {
		for sw != 0 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			w := h.l0[wi]
			for w != 0 {
				fn(wi<<6 + bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
	}
}
