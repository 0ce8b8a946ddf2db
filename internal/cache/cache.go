// Package cache models set-associative, LRU-replaced caches and
// multi-level hierarchies.
//
// The simulator instantiates a Xeon-E5450-like hierarchy (the paper's
// testbed, §4.1): split 32 KiB L1I / 32 KiB L1D, and a large unified
// last-level cache.  Only hit/miss behaviour is modelled — no data is
// stored — because the paper's results are miss-counter deltas and the
// cycle penalties derived from them.
package cache

import (
	"fmt"

	"repro/internal/setassoc"
)

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
	// HitLatency and MissPenalty are in cycles; MissPenalty is the
	// *additional* cost beyond the next level's access.
	HitLatency  int
	MissPenalty int
}

// Validate reports an error for an inconsistent configuration.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache %q: size %d not a multiple of line size %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	sets := lines / c.Ways
	if sets*c.Ways != lines || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: %d lines / %d ways is not a power-of-two set count", c.Name, lines, c.Ways)
	}
	return nil
}

// Cache is one cache level.
type Cache struct {
	cfg       Config
	lineShift uint
	tags      *setassoc.Table[struct{}]
	next      *Cache // next level, nil for last level
}

// New constructs a cache from cfg, optionally backed by a next level.
// It panics on invalid configuration.
func New(cfg Config, next *Cache) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	return &Cache{
		cfg:       cfg,
		lineShift: shift,
		tags:      setassoc.New[struct{}](sets, cfg.Ways),
		next:      next,
	}
}

// Clone returns an independent copy of this level — contents, LRU
// state and counters — backed by next, which the caller clones first
// (an L1's copy must point at the copy of its L2, not the original).
func (c *Cache) Clone(next *Cache) *Cache {
	cp := *c
	cp.tags = c.tags.Clone()
	cp.next = next
	return &cp
}

// Snapshot returns a compact copy of a last-level cache, holding only
// its resident lines (see setassoc.Table.Snapshot), for storage: it
// must not be accessed until Expand, which restores it exactly.
func (c *Cache) Snapshot() *Cache {
	cp := *c
	cp.tags = c.tags.Snapshot()
	return &cp
}

// Expand restores a snapshot's full storage (a no-op on a full cache).
func (c *Cache) Expand() { c.tags.Expand() }

// Line returns the line index (address divided by line size).
func (c *Cache) Line(addr uint64) uint64 { return addr >> c.lineShift }

// Access performs a cache access for the byte at addr and returns the
// total latency in cycles, filling this level (and recursively the
// ones below) on a miss.
func (c *Cache) Access(addr uint64) int {
	return c.access(c.Line(addr), addr)
}

// access is Access with the line number already computed, so the range
// fast path does not compute it twice.
func (c *Cache) access(line, addr uint64) int {
	if _, hit := c.tags.Lookup(line); hit {
		return c.cfg.HitLatency
	}
	lat := c.cfg.HitLatency + c.cfg.MissPenalty
	if c.next != nil {
		lat += c.next.Access(addr)
	}
	c.tags.Insert(line, struct{}{})
	return lat
}

// AccessRange touches every line overlapped by [addr, addr+size) and
// returns the summed latency.  Instruction fetch uses it for
// instructions that straddle a line boundary; almost all accesses fit
// one line, so that case skips the loop entirely.
func (c *Cache) AccessRange(addr, size uint64) int {
	if size == 0 {
		size = 1
	}
	first, last := c.Line(addr), c.Line(addr+size-1)
	if first == last {
		return c.access(first, addr)
	}
	lat := 0
	for line := first; line <= last; line++ {
		lat += c.access(line, line<<c.lineShift)
	}
	return lat
}

// AccessRepeat performs n consecutive accesses for the byte at addr,
// all falling in one line, and returns the summed latency.  The first
// access is an ordinary Access (it may miss and fill); the remaining
// n-1 are guaranteed hits — nothing can evict the line in between —
// so they are applied in bulk via the tag table's BumpHits, with
// counter and LRU effects bit-identical to n sequential Access calls.
// The compiled-trace replay loop uses it for runs of straight-line
// instruction fetches sharing a line.
func (c *Cache) AccessRepeat(addr uint64, n int) int {
	if n <= 0 {
		return 0
	}
	line := c.Line(addr)
	lat := c.access(line, addr)
	if n > 1 {
		c.tags.BumpHits(line, n-1)
		lat += (n - 1) * c.cfg.HitLatency
	}
	return lat
}

// Contains reports whether addr's line is resident, without updating
// LRU or counters.
func (c *Cache) Contains(addr uint64) bool {
	_, ok := c.tags.Peek(c.Line(addr))
	return ok
}

// Accesses returns the number of lookups performed at this level.
func (c *Cache) Accesses() uint64 { return c.tags.Lookups() }

// Misses returns the number of lookups that missed at this level.
func (c *Cache) Misses() uint64 { return c.tags.Misses() }

// MissRate returns misses/accesses, or 0 if never accessed.
func (c *Cache) MissRate() float64 {
	if c.tags.Lookups() == 0 {
		return 0
	}
	return float64(c.tags.Misses()) / float64(c.tags.Lookups())
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Next returns the next cache level, or nil.
func (c *Cache) Next() *Cache { return c.next }

// Flush invalidates all lines at this level only.
func (c *Cache) Flush() { c.tags.Clear() }

// ResetStats zeroes counters at this level and below, preserving
// contents; used to end warmup.
func (c *Cache) ResetStats() {
	c.tags.ResetStats()
	if c.next != nil {
		c.next.ResetStats()
	}
}

// Default configurations approximating the paper's Xeon E5450
// (Harpertown): 32K/8-way L1s, 12 MiB/24-way L2 (it had no L3; the
// shared 12 MiB was the last level).  Latencies are round numbers in
// the right regime for a 3 GHz part.
func DefaultL1I(next *Cache) *Cache {
	return New(Config{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8,
		HitLatency: 0, MissPenalty: 8}, next)
}

func DefaultL1D(next *Cache) *Cache {
	return New(Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8,
		HitLatency: 0, MissPenalty: 8}, next)
}

func DefaultL2() *Cache {
	return New(Config{Name: "L2", SizeBytes: 12 << 20, LineBytes: 64, Ways: 24,
		HitLatency: 4, MissPenalty: 180}, nil)
}
