// Package trace is the simulator's counterpart of the paper's pintool
// (§4.3): it records the stream of library-function calls (by PLT
// trampoline address), aggregates per-trampoline frequencies, and
// replays the stream through idealised ABTB models of varying size.
//
// Three artefacts come from here: Table 3 (distinct trampolines),
// Figure 4 (trampoline frequency vs. rank), and Figure 5 (fraction of
// trampolines skippable vs. ABTB size, the working-set analysis).
package trace

import (
	"maps"
	"sort"

	"repro/internal/cpu"
)

// Recorder accumulates the trampoline call stream of one CPU.
type Recorder struct {
	maxEvents int
	seq       []uint64
	truncated bool
	freq      map[uint64]uint64
	total     uint64
}

// NewRecorder returns a recorder keeping at most maxEvents sequence
// entries (0 means a 4M default).  Frequency counts are always exact
// regardless of sequence truncation.
func NewRecorder(maxEvents int) *Recorder {
	if maxEvents <= 0 {
		maxEvents = 4 << 20
	}
	return &Recorder{
		maxEvents: maxEvents,
		freq:      make(map[uint64]uint64),
	}
}

// Attach hooks the recorder into the CPU's library-call trace point.
func (r *Recorder) Attach(c *cpu.CPU) {
	c.TraceLibCall = r.Record
}

// Clone returns an independent copy of the recorded stream and
// per-slot counts; recording into either side leaves the other as it
// was.
func (r *Recorder) Clone() *Recorder {
	c := *r
	c.seq = append([]uint64(nil), r.seq...)
	c.freq = maps.Clone(r.freq)
	return &c
}

// Record logs one library call through the trampoline at slot.
func (r *Recorder) Record(slot uint64) {
	r.total++
	r.freq[slot]++
	if len(r.seq) < r.maxEvents {
		r.seq = append(r.seq, slot)
	} else {
		r.truncated = true
	}
}

// Total returns the number of library calls recorded.
func (r *Recorder) Total() uint64 { return r.total }

// Distinct returns the number of distinct trampolines seen (Table 3).
func (r *Recorder) Distinct() int { return len(r.freq) }

// Truncated reports whether the sequence buffer overflowed.
func (r *Recorder) Truncated() bool { return r.truncated }

// TrampCount is one trampoline's call count.
type TrampCount struct {
	Slot  uint64
	Count uint64
}

// Ranked returns per-trampoline counts sorted by descending count
// (Figure 4's x-axis is the rank in this order).
func (r *Recorder) Ranked() []TrampCount {
	out := make([]TrampCount, 0, len(r.freq))
	for s, c := range r.freq {
		out = append(out, TrampCount{Slot: s, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Slot < out[j].Slot
	})
	return out
}

// SkipRatio replays the recorded call stream through an idealised
// fully-associative, LRU-replaced ABTB with the given entry count and
// returns the fraction of calls that would skip their trampoline (hit
// the table).  The first call to each trampoline always misses
// (nothing is mapped yet), matching the hardware's behaviour after the
// initial resolution settles.
func (r *Recorder) SkipRatio(entries int) float64 {
	if entries <= 0 || len(r.seq) == 0 {
		return 0
	}
	lru := newLRU(entries)
	hits := 0
	for _, s := range r.seq {
		if lru.touch(s) {
			hits++
		}
	}
	return float64(hits) / float64(len(r.seq))
}

// SkipCurve evaluates SkipRatio at each size, producing Figure 5's
// series for one workload.
func (r *Recorder) SkipCurve(sizes []int) []float64 {
	out := make([]float64, len(sizes))
	for i, n := range sizes {
		out[i] = r.SkipRatio(n)
	}
	return out
}

// lru is a fixed-capacity LRU set over uint64 keys with O(1) touch.
type lru struct {
	cap  int
	m    map[uint64]*node
	head *node // most recent
	tail *node // least recent
}

type node struct {
	key        uint64
	prev, next *node
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, m: make(map[uint64]*node, capacity)}
}

// touch inserts or refreshes key, returning whether it was present.
func (l *lru) touch(key uint64) bool {
	if n, ok := l.m[key]; ok {
		l.moveToFront(n)
		return true
	}
	n := &node{key: key}
	l.m[key] = n
	l.pushFront(n)
	if len(l.m) > l.cap {
		evict := l.tail
		l.unlink(evict)
		delete(l.m, evict.key)
	}
	return false
}

func (l *lru) pushFront(n *node) {
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *lru) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *lru) moveToFront(n *node) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}
