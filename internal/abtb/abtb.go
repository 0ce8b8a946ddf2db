// Package abtb implements the paper's contribution: the alternate
// branch target buffer (ABTB) and its guarding Bloom filter (§3).
//
// The ABTB is a small retire-time table mapping the address of a PLT
// trampoline to the address of the library function the trampoline
// jumps to.  When the back end resolves a call whose target hits the
// ABTB, it reports the *mapped* address as the correct target through
// the ordinary branch-feedback path, so the front end learns to fetch
// the library function directly and the trampoline is never fetched or
// executed again.
//
// Correctness rests on two rules:
//
//  1. Population (§3.2): when a retired call is immediately followed
//     by a retired indirect branch, insert (call target → branch
//     target) into the ABTB and the branch's memory-operand address
//     (the GOT slot) into the Bloom filter.
//  2. Invalidation (§3.1): when a retired store — or a coherence
//     invalidation — hits the Bloom filter, clear the whole ABTB and
//     the filter.  Bloom filters have no false negatives, so a stale
//     mapping can never survive a GOT update.
//
// §3.4's alternate implementation drops the Bloom filter and instead
// relies on software executing an explicit invalidate instruction; the
// ExplicitInvalidate configuration models it.
package abtb

import (
	"fmt"
	"math/bits"

	"repro/internal/bloom"
	"repro/internal/setassoc"
)

// EntryBytes is the hardware cost of one ABTB entry: six bytes for the
// call target (trampoline address) and six for the function address,
// as x86-64 uses 48-bit virtual addresses (§5.3).
const EntryBytes = 12

// Config describes the ABTB hardware.
type Config struct {
	Entries int // total entries; the paper's headline design uses 256
	Ways    int

	// BloomBits and BloomK size the GOT-address Bloom filter.
	BloomBits int
	BloomK    int

	// ExplicitInvalidate selects the §3.4 variant: no Bloom filter;
	// stores never flush the ABTB and software must call Invalidate.
	ExplicitInvalidate bool

	// ASIDs, when true, tags entries with an address-space ID so the
	// ABTB survives context switches, like an ASID-tagged TLB (§3.3).
	// When false, SwitchContext flushes the table.
	ASIDs bool

	// PatternWindow is the number of simple (non-branch,
	// non-memory-writing) instructions allowed between the retiring
	// call and the trampoline's indirect branch.  x86-64 trampolines
	// are a single `jmp *(got)`, so 0 suffices; ARM trampolines are
	// two address-forming adds followed by `ldr pc, [got]` (paper
	// Fig. 2b), needing a window of 2.  The retired instructions must
	// be sequential from the call target, so ordinary calls to
	// functions that begin with computation never alias a trampoline.
	PatternWindow int
}

// DefaultConfig is the paper's headline design point: a 256-entry
// ABTB.  Two parameters the paper leaves unspecified are fixed here
// by the working-set analysis in our ablations:
//
//   - The table is fully associative (Ways == Entries).  Figure 5's
//     trace analysis assumes LRU over the whole table; a low-way
//     ABTB indexed by 16-byte-aligned PLT addresses thrashes far
//     below its capacity.  A 256-entry CAM of 12-byte entries is
//     small by BTB standards.
//   - The Bloom filter is 32 Kbit (4 KiB).  Because entries can
//     never be removed from a Bloom filter, it accumulates one GOT
//     address per trampoline *ever* mapped between flushes — about
//     500 for Apache and 1600 for MySQL.  At the 1 Kbit size one
//     might guess from the paper's storage budget, the filter
//     saturates and then every ordinary store flushes the ABTB
//     (ablation A1 quantifies this cliff).
func DefaultConfig() Config {
	return Config{Entries: 256, Ways: 256, BloomBits: 32768, BloomK: 4}
}

// Validate reports an error for an inconsistent configuration.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 {
		return fmt.Errorf("abtb: non-positive geometry %+v", c)
	}
	if c.Entries%c.Ways != 0 {
		return fmt.Errorf("abtb: entries %d not divisible by ways %d", c.Entries, c.Ways)
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("abtb: set count %d not a power of two", sets)
	}
	if !c.ExplicitInvalidate && (c.BloomBits <= 0 || c.BloomK <= 0) {
		return fmt.Errorf("abtb: bloom filter misconfigured: bits=%d k=%d", c.BloomBits, c.BloomK)
	}
	return nil
}

// SizeBytes returns the on-chip storage cost of the configuration,
// the §5.3 budget metric.
func (c Config) SizeBytes() int {
	n := c.Entries * EntryBytes
	if !c.ExplicitInvalidate {
		n += (c.BloomBits + 7) / 8
	}
	return n
}

type mapping struct {
	target uint64 // library function address
}

// ABTB is the alternate BTB with its Bloom filter.
type ABTB struct {
	cfg   Config
	table *setassoc.Table[mapping]
	bloom *bloom.Filter // nil in ExplicitInvalidate mode
	asid  uint64

	// Retire-stage pattern detector: the resolved target of the most
	// recently retired call, the PC the sequential glue has advanced
	// to, and the remaining glue-instruction budget.
	pendingCall      uint64
	pendingCallValid bool
	expectPC         uint64
	glueBudget       int

	redirects   uint64 // resolutions answered from the ABTB
	inserts     uint64
	flushes     uint64
	storeSnoops uint64
	flushStores uint64 // stores whose Bloom hit forced a flush
	switches    uint64
}

// New constructs an ABTB, panicking on invalid configuration.
func New(cfg Config) *ABTB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	a := &ABTB{
		cfg:   cfg,
		table: setassoc.New[mapping](cfg.Entries/cfg.Ways, cfg.Ways),
	}
	if !cfg.ExplicitInvalidate {
		a.bloom = bloom.New(cfg.BloomBits, cfg.BloomK)
	}
	return a
}

// Clone returns an independent copy of the ABTB: mappings, Bloom
// filter, ASID, the retire-stage pattern detector's pending state and
// counters.
func (a *ABTB) Clone() *ABTB {
	c := *a
	c.table = a.table.Clone()
	if a.bloom != nil {
		c.bloom = a.bloom.Clone()
	}
	return &c
}

// key derives the table key from a trampoline address.  PLT slots are
// 16-byte aligned, so the low four bits carry no entropy; rotating
// them to the top (an injective transform, so distinct addresses never
// produce a false tag match) makes consecutive PLT slots index
// consecutive sets, as a hardware ABTB would index above the slot
// alignment.  With ASID support configured, the ASID is folded into
// the (otherwise unused) top bits so address spaces never alias.
func (a *ABTB) key(tramp uint64) uint64 {
	k := bits.RotateLeft64(tramp, 60)
	if !a.cfg.ASIDs {
		return k
	}
	return k ^ (a.asid << 48) ^ (a.asid * 0x9e3779b97f4a7c15 & 0xffff000000000000)
}

// Lookup consults the ABTB at branch resolution: if the resolved
// target of a retired call is a known trampoline, it returns the
// mapped library function address.  This is the redirect that makes
// the front end skip the trampoline.
func (a *ABTB) Lookup(callTarget uint64) (funcAddr uint64, ok bool) {
	m, ok := a.table.Lookup(a.key(callTarget))
	if ok {
		a.redirects++
		return m.target, true
	}
	return 0, false
}

// OnRetireCall records the resolved target of a retired call
// instruction; if the next retired instructions are (up to
// PatternWindow of sequential glue followed by) an indirect branch,
// the pair populates the ABTB.
func (a *ABTB) OnRetireCall(resolvedTarget uint64) {
	a.pendingCall = resolvedTarget
	a.pendingCallValid = true
	a.expectPC = resolvedTarget
	a.glueBudget = a.cfg.PatternWindow
}

// OnRetireIndirectBranch is called when an indirect branch retires,
// with the branch's own address, its resolved target, and the memory
// address its target was loaded from (the GOT slot; 0 if the branch
// had no memory operand, e.g. a return).  If the preceding retired
// instructions were a call followed by sequential trampoline glue
// ending at this branch, the mapping is inserted: the call's target
// (the trampoline entry) maps to this branch's target.
func (a *ABTB) OnRetireIndirectBranch(branchPC, branchTarget, memAddr uint64) {
	defer func() { a.pendingCallValid = false }()
	if !a.pendingCallValid || a.expectPC != branchPC || memAddr == 0 {
		return
	}
	a.table.Insert(a.key(a.pendingCall), mapping{target: branchTarget})
	a.inserts++
	if a.bloom != nil {
		a.bloom.Add(memAddr)
	}
}

// OnRetireOther must be called when any non-call, non-indirect-branch
// instruction retires, with its PC and encoded size.  Within the
// configured pattern window, sequential simple instructions (ARM's
// address-forming adds) keep the pattern alive; anything else breaks
// it.
func (a *ABTB) OnRetireOther(pc uint64, size uint8) {
	if !a.pendingCallValid {
		return
	}
	if a.glueBudget > 0 && pc == a.expectPC {
		a.glueBudget--
		a.expectPC += uint64(size)
		return
	}
	a.pendingCallValid = false
}

// BreakPattern unconditionally cancels a pending call→indirect-branch
// pattern.  The CPU calls it for retired instructions that can never
// be trampoline glue: memory writes, direct branches, returns.
func (a *ABTB) BreakPattern() {
	a.pendingCallValid = false
}

// PatternPending reports whether a retired call is awaiting its
// indirect branch.  The compiled-trace replay loop consults it before
// a superblock of simple instructions: when no pattern is pending,
// none of the block's OnRetireOther/BreakPattern calls can have any
// effect (nothing inside a superblock retires a call), so the whole
// per-instruction hook walk is skipped.
func (a *ABTB) PatternPending() bool { return a.pendingCallValid }

// SnoopStore is called with the address of every retired store (and
// every incoming coherence invalidation).  In the Bloom-filtered
// design a hit clears the entire ABTB; in the §3.4 variant stores are
// ignored.  It reports whether a flush occurred.
func (a *ABTB) SnoopStore(addr uint64) bool {
	if a.bloom == nil {
		return false
	}
	a.storeSnoops++
	if !a.bloom.Test(addr) {
		return false
	}
	a.flushStores++
	a.flushAll()
	return true
}

// Invalidate is the §3.4 architecturally visible instruction: software
// (the dynamic linker) executes it after updating a GOT entry.
func (a *ABTB) Invalidate() { a.flushAll() }

// SwitchContext informs the ABTB of a context switch to the given
// address-space ID.  Without ASID support the table is flushed, like
// an untagged TLB (§3.3).
func (a *ABTB) SwitchContext(asid uint64) {
	a.switches++
	if a.cfg.ASIDs {
		a.asid = asid
		return
	}
	a.asid = asid
	a.flushAll()
}

func (a *ABTB) flushAll() {
	a.table.Clear()
	if a.bloom != nil {
		a.bloom.Clear()
	}
	a.flushes++
}

// Len returns the number of valid mappings.
func (a *ABTB) Len() int { return a.table.Len() }

// Config returns the hardware configuration.
func (a *ABTB) Config() Config { return a.cfg }

// Redirects returns the number of lookups answered from the table —
// each one a skipped trampoline.
func (a *ABTB) Redirects() uint64 { return a.redirects }

// Inserts returns the number of pattern-detected insertions.
func (a *ABTB) Inserts() uint64 { return a.inserts }

// Flushes returns the number of whole-table clears.
func (a *ABTB) Flushes() uint64 { return a.flushes }

// FlushingStores returns the number of stores whose Bloom hit forced a
// flush.  True GOT updates and Bloom false positives both land here;
// the ablation benchmarks separate them by sweeping the filter size.
func (a *ABTB) FlushingStores() uint64 { return a.flushStores }

// StoreSnoops returns the number of stores tested against the filter.
func (a *ABTB) StoreSnoops() uint64 { return a.storeSnoops }

// ContextSwitches returns the number of SwitchContext calls.
func (a *ABTB) ContextSwitches() uint64 { return a.switches }

// ResetStats zeroes counters, preserving table contents.
func (a *ABTB) ResetStats() {
	a.redirects, a.inserts, a.flushes = 0, 0, 0
	a.storeSnoops, a.flushStores, a.switches = 0, 0, 0
	a.table.ResetStats()
}
