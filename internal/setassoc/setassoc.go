// Package setassoc implements a generic set-associative, LRU-replaced
// lookup table — the storage organisation shared by every hardware
// structure in the simulator: caches, TLBs, the BTB and the ABTB.
//
// Keys are 64-bit values (addresses or page numbers).  The set index
// is taken from the low bits of the key and the full key is stored as
// the tag, so aliasing between distinct keys never produces a false
// hit; conflict behaviour (the paper's concern for BTB pressure) comes
// from set overflow, exactly as in hardware.
//
// Lookup is the hottest function in the simulator — every I-cache,
// D-cache, TLB, BTB and ABTB access lands here, and the ABTB is a
// 256-way fully-associative CAM probed once per retired call.  Three
// accelerations keep the modelled semantics (lookup/hit counters, LRU
// ordering, eviction choice) bit-identical while avoiding the naive
// O(ways) scan in the common cases:
//
//   - a last-hit memo: sequential code re-probes the same line/page/
//     target back to back, so the previously hit entry is checked
//     first (revalidated against key+valid, so staleness is harmless);
//   - a per-set occupancy count, so scans stop after all valid entries
//     have been examined instead of walking every way of a mostly
//     empty high-associativity set;
//   - a per-set 64-bit key signature (a superset of the resident keys'
//     hash bits), so most misses are rejected without scanning at all.
//     Replacement leaves stale bits behind — the signature is only
//     ever a superset, which costs a wasted scan, never a wrong
//     result — and Invalidate/Clear rebuild or reset it exactly.
package setassoc

import "fmt"

type entry[V any] struct {
	valid bool
	key   uint64
	val   V
	lru   uint64
}

type packedEntry[V any] struct {
	idx int
	e   entry[V]
}

// Table is a set-associative table mapping uint64 keys to values of
// type V.  Construct with New.
type Table[V any] struct {
	sets    int
	ways    int
	mask    uint64
	entries []entry[V]
	tick    uint64

	// occ[s] counts the valid entries in set s; sig[s] is a superset
	// signature of the keys resident in set s.  lastHit points at the
	// entry of the most recent Lookup hit, or nil.
	occ     []uint16
	sig     []uint64
	lastHit *entry[V]

	lookups   uint64
	hits      uint64
	evictions uint64

	// packed holds a snapshot's valid entries with their positions,
	// and packedLast the last-hit memo's position (-1 for none);
	// entries is nil in a snapshot.  They sit last so the fields
	// Lookup touches keep their cache lines.
	packed     []packedEntry[V]
	packedLast int
}

// sigBit maps a key to its signature bit.  The multiplier is the
// 64-bit golden ratio; the top six product bits select the bit so that
// keys differing only in low bits (adjacent lines, pages, slots) still
// spread across the signature.
func sigBit(key uint64) uint64 {
	return 1 << ((key * 0x9e3779b97f4a7c15) >> 58)
}

// New returns a table with the given geometry.  sets must be a power
// of two; both arguments must be positive.  It panics otherwise, since
// geometry is fixed hardware configuration.
func New[V any](sets, ways int) *Table[V] {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("setassoc: invalid geometry sets=%d ways=%d", sets, ways))
	}
	if ways > 1<<16-1 {
		panic(fmt.Sprintf("setassoc: associativity %d exceeds occupancy counter range", ways))
	}
	return &Table[V]{
		sets:    sets,
		ways:    ways,
		mask:    uint64(sets - 1),
		entries: make([]entry[V], sets*ways),
		occ:     make([]uint16, sets),
		sig:     make([]uint64, sets),
	}
}

// Clone returns an independent deep copy: contents, LRU stamps,
// occupancy, signatures and counters.  The last-hit memo is re-pointed
// at the copy's own entry, so a hit through it never touches the
// source.  A memoised entry that was invalidated out of its key's set
// is dropped instead; it could never hit anyway.
//
// A snapshot (see Snapshot) clones into a full table.
func (t *Table[V]) Clone() *Table[V] {
	c := *t
	c.occ = append([]uint16(nil), t.occ...)
	c.sig = append([]uint64(nil), t.sig...)
	if t.entries == nil {
		c.Expand()
		return &c
	}
	c.entries = append([]entry[V](nil), t.entries...)
	c.lastHit = nil
	if i := t.lastIndex(); i >= 0 {
		c.lastHit = &c.entries[i]
	}
	return &c
}

// lastIndex returns the last-hit memo's position in entries, or -1.
func (t *Table[V]) lastIndex() int {
	if e := t.lastHit; e != nil {
		base := int(e.key&t.mask) * t.ways
		for i := base; i < base+t.ways; i++ {
			if &t.entries[i] == e {
				return i
			}
		}
	}
	return -1
}

// Snapshot returns a compact copy of the table for storage: its valid
// entries, LRU state and counters, without storage for the invalid
// entries.  A large, mostly empty table — a last-level cache after
// warmup — shrinks to a few percent of its size.  A snapshot must not
// be used until Expand, except as the source of Clone or Snapshot.
func (t *Table[V]) Snapshot() *Table[V] {
	c := *t
	c.occ = append([]uint16(nil), t.occ...)
	c.sig = append([]uint64(nil), t.sig...)
	if t.entries == nil {
		return &c // packed is never written in place, so share it
	}
	c.entries, c.lastHit, c.packed = nil, nil, nil
	c.packedLast = t.lastIndex()
	for i, e := range t.entries {
		if e.valid {
			c.packed = append(c.packed, packedEntry[V]{idx: i, e: e})
		}
	}
	return &c
}

// Expand restores a snapshot's full storage; the table then behaves
// exactly as the one the snapshot was taken of.  It is a no-op on a
// full table.
func (t *Table[V]) Expand() {
	if t.entries != nil {
		return
	}
	t.entries = make([]entry[V], t.sets*t.ways)
	for _, p := range t.packed {
		t.entries[p.idx] = p.e
	}
	if t.packedLast >= 0 {
		t.lastHit = &t.entries[t.packedLast]
	}
	t.packed, t.packedLast = nil, 0
}

// Sets returns the number of sets.
func (t *Table[V]) Sets() int { return t.sets }

// Ways returns the associativity.
func (t *Table[V]) Ways() int { return t.ways }

// Entries returns the total capacity in entries.
func (t *Table[V]) Entries() int { return t.sets * t.ways }

// Lookup returns the value stored for key and whether it was present,
// updating LRU state and hit/miss counters on the way.
func (t *Table[V]) Lookup(key uint64) (V, bool) {
	t.lookups++
	if e := t.lastHit; e != nil && e.key == key && e.valid {
		t.tick++
		e.lru = t.tick
		t.hits++
		return e.val, true
	}
	s := int(key & t.mask)
	if t.sig[s]&sigBit(key) != 0 {
		// Insert prefers the highest invalid way, so sets fill from
		// the top: scan downward and stop once every valid entry has
		// been seen.
		base := s * t.ways
		rem := int(t.occ[s])
		for i := base + t.ways - 1; rem > 0 && i >= base; i-- {
			e := &t.entries[i]
			if !e.valid {
				continue
			}
			if e.key == key {
				t.tick++
				e.lru = t.tick
				t.hits++
				t.lastHit = e
				return e.val, true
			}
			rem--
		}
	}
	var zero V
	return zero, false
}

// BumpHits applies n consecutive hit-Lookups of key in one step and
// reports whether the key was resident.  The counter and LRU effects
// are exactly those of calling Lookup n times when every call hits:
// lookups and hits advance by n, the tick advances by n, and the
// entry's LRU stamp lands on the final tick.  The compiled-trace
// replay loop uses it to account for a run of guaranteed same-line
// accesses without re-probing; callers must only use it when the key
// is known to be resident (n repeated accesses with nothing evicting
// in between).  If the key is in fact absent the single probe spent
// discovering that is recorded as an ordinary miss and false returns.
func (t *Table[V]) BumpHits(key uint64, n int) bool {
	if n <= 0 {
		return true
	}
	if _, ok := t.Lookup(key); !ok {
		return false
	}
	if n > 1 {
		// Lookup left lastHit pointing at key's entry; replay the
		// remaining n-1 hits in bulk.
		t.lookups += uint64(n - 1)
		t.hits += uint64(n - 1)
		t.tick += uint64(n - 1)
		t.lastHit.lru = t.tick
	}
	return true
}

// Peek returns the value for key without updating LRU state or
// counters.  Used by retire-time checks that must not perturb the
// structure.
func (t *Table[V]) Peek(key uint64) (V, bool) {
	s := int(key & t.mask)
	if t.sig[s]&sigBit(key) != 0 {
		base := s * t.ways
		rem := int(t.occ[s])
		for i := base + t.ways - 1; rem > 0 && i >= base; i-- {
			e := &t.entries[i]
			if !e.valid {
				continue
			}
			if e.key == key {
				return e.val, true
			}
			rem--
		}
	}
	var zero V
	return zero, false
}

// Insert stores val under key, replacing the LRU way of the set if the
// key is not already present.  It reports whether a valid, different
// entry was evicted.
//
// The direct-mapped case short-circuits: with one way there is nothing
// to scan and no LRU comparison to make.
func (t *Table[V]) Insert(key uint64, val V) (evicted bool) {
	t.tick++
	s := int(key & t.mask)
	base := s * t.ways
	if t.ways == 1 {
		e := &t.entries[base]
		if e.valid && e.key != key {
			t.evictions++
			evicted = true
		}
		*e = entry[V]{valid: true, key: key, val: val, lru: t.tick}
		t.occ[s] = 1
		t.sig[s] |= sigBit(key)
		return evicted
	}
	victim := base
	for i := base; i < base+t.ways; i++ {
		e := &t.entries[i]
		if e.valid && e.key == key {
			e.val = val
			e.lru = t.tick
			return false
		}
		if !e.valid {
			victim = i
			// Prefer an invalid way but keep scanning for the key.
			continue
		}
		if t.entries[victim].valid && e.lru < t.entries[victim].lru {
			victim = i
		}
	}
	evicted = t.entries[victim].valid
	if evicted {
		t.evictions++
	} else {
		t.occ[s]++
	}
	t.entries[victim] = entry[V]{valid: true, key: key, val: val, lru: t.tick}
	t.sig[s] |= sigBit(key)
	return evicted
}

// Invalidate removes key if present, reporting whether it was.
func (t *Table[V]) Invalidate(key uint64) bool {
	s := int(key & t.mask)
	if t.sig[s]&sigBit(key) == 0 {
		return false
	}
	base := s * t.ways
	for i := base; i < base+t.ways; i++ {
		if e := &t.entries[i]; e.valid && e.key == key {
			*e = entry[V]{}
			t.occ[s]--
			t.rebuildSig(s)
			return true
		}
	}
	return false
}

// rebuildSig recomputes set s's signature exactly from its resident
// keys.  Only Invalidate needs it; replacement tolerates stale bits.
func (t *Table[V]) rebuildSig(s int) {
	var sig uint64
	base := s * t.ways
	for i := base; i < base+t.ways; i++ {
		if e := &t.entries[i]; e.valid {
			sig |= sigBit(e.key)
		}
	}
	t.sig[s] = sig
}

// Clear invalidates every entry (flush).  Statistics are preserved.
func (t *Table[V]) Clear() {
	for i := range t.entries {
		t.entries[i] = entry[V]{}
	}
	for s := range t.occ {
		t.occ[s] = 0
		t.sig[s] = 0
	}
	t.lastHit = nil
}

// Len returns the number of valid entries.
func (t *Table[V]) Len() int {
	n := 0
	for s := range t.occ {
		n += int(t.occ[s])
	}
	return n
}

// Lookups returns the number of Lookup calls.
func (t *Table[V]) Lookups() uint64 { return t.lookups }

// Hits returns the number of Lookup calls that hit.
func (t *Table[V]) Hits() uint64 { return t.hits }

// Misses returns the number of Lookup calls that missed.
func (t *Table[V]) Misses() uint64 { return t.lookups - t.hits }

// Evictions returns the number of valid entries replaced by Insert.
func (t *Table[V]) Evictions() uint64 { return t.evictions }

// ResetStats zeroes the hit/miss/eviction counters, keeping contents.
// Used to exclude warmup from measurement windows.
func (t *Table[V]) ResetStats() {
	t.lookups, t.hits, t.evictions = 0, 0, 0
}
