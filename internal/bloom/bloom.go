// Package bloom implements the Bloom filter used by the ABTB to track
// GOT-entry addresses (paper §3.1).
//
// The filter stores the data addresses from which trampoline indirect
// branches loaded their targets.  A retired store (or an incoming
// coherence invalidation) whose address hits the filter may have
// modified a GOT entry backing an ABTB mapping, so the ABTB must be
// flushed.  Bloom filters admit false positives (harmless: a spurious
// flush only costs re-population) but never false negatives, which is
// what makes the ABTB architecturally safe.
//
// Hashing follows the standard double-hashing construction
// (Kirsch & Mitzenmacher): k indices are derived as h1 + i*h2 from two
// independent 32-bit halves of a 64-bit mix of the key.
package bloom

import "fmt"

// Filter is a Bloom filter over 64-bit addresses.  The zero value is
// not usable; construct with New.
type Filter struct {
	bits    []uint64
	nbits   uint64
	k       int
	n       int // elements added since last clear
	lookups uint64
	hits    uint64
}

// New returns a filter with the given number of bits (rounded up to a
// multiple of 64) and k hash functions.  It panics on non-positive
// arguments, which indicate a misconfigured hardware model.
func New(bits, k int) *Filter {
	if bits <= 0 || k <= 0 {
		panic(fmt.Sprintf("bloom: invalid parameters bits=%d k=%d", bits, k))
	}
	words := (bits + 63) / 64
	return &Filter{
		bits:  make([]uint64, words),
		nbits: uint64(words) * 64,
		k:     k,
	}
}

// Clone returns an independent copy of the filter's bits and counters.
func (f *Filter) Clone() *Filter {
	c := *f
	c.bits = append([]uint64(nil), f.bits...)
	return &c
}

// mix64 is SplitMix64's finalizer, a strong 64-bit mixing function.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (f *Filter) index(key uint64, i int) uint64 {
	m := mix64(key)
	h1 := m & 0xffffffff
	h2 := m >> 32
	// Force h2 odd so the stride cycles all positions for power-of-two
	// sizes.
	return (h1 + uint64(i)*(h2|1)) % f.nbits
}

// Add inserts an address into the filter.
func (f *Filter) Add(addr uint64) {
	for i := 0; i < f.k; i++ {
		b := f.index(addr, i)
		f.bits[b/64] |= 1 << (b % 64)
	}
	f.n++
}

// Test reports whether the address may have been added.  A false
// result is definitive: the address was never added since the last
// Clear.
func (f *Filter) Test(addr uint64) bool {
	f.lookups++
	for i := 0; i < f.k; i++ {
		b := f.index(addr, i)
		if f.bits[b/64]&(1<<(b%64)) == 0 {
			return false
		}
	}
	f.hits++
	return true
}

// Clear resets the filter to empty.
func (f *Filter) Clear() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.n = 0
}

// Len returns the number of additions since the last Clear.
func (f *Filter) Len() int { return f.n }

// Bits returns the filter capacity in bits.
func (f *Filter) Bits() int { return int(f.nbits) }

// K returns the number of hash functions.
func (f *Filter) K() int { return f.k }

// Lookups returns the number of Test calls performed.
func (f *Filter) Lookups() uint64 { return f.lookups }

// Hits returns the number of Test calls that returned true.
func (f *Filter) Hits() uint64 { return f.hits }

// SizeBytes returns the storage cost of the filter in bytes, used for
// the hardware-budget accounting in §5.3.
func (f *Filter) SizeBytes() int { return int(f.nbits) / 8 }
