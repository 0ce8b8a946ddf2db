// Package branch models the processor front-end branch prediction
// hardware: a set-associative branch target buffer (BTB), a gshare
// direction predictor, and a return address stack (RAS).
//
// The paper's mechanism deliberately reuses this machinery: the ABTB
// feeds corrected targets through the ordinary "branch resolved"
// update path (§3.1, Fig. 3), so the front end needs no modification.
// In the simulator the CPU asks this package for predictions at fetch
// and reports resolved outcomes at retire; the ABTB intervenes only in
// what target the CPU reports as correct.
package branch

import (
	"fmt"
	"math/bits"

	"repro/internal/setassoc"
)

// Config describes the predictor geometry.
type Config struct {
	BTBEntries int // total BTB entries
	BTBWays    int
	PHTEntries int // gshare pattern history table (2-bit counters)
	HistoryLen int // global history bits
	RASDepth   int
}

// DefaultConfig approximates a Core-2-era front end (the paper's Xeon
// E5450 testbed).
func DefaultConfig() Config {
	return Config{
		BTBEntries: 2048,
		BTBWays:    4,
		PHTEntries: 4096,
		HistoryLen: 12,
		RASDepth:   16,
	}
}

// Validate reports an error for an inconsistent configuration.
func (c Config) Validate() error {
	if c.BTBEntries <= 0 || c.BTBWays <= 0 || c.PHTEntries <= 0 || c.RASDepth <= 0 {
		return fmt.Errorf("branch: non-positive geometry %+v", c)
	}
	if c.BTBEntries%c.BTBWays != 0 {
		return fmt.Errorf("branch: BTB entries %d not divisible by ways %d", c.BTBEntries, c.BTBWays)
	}
	sets := c.BTBEntries / c.BTBWays
	if sets&(sets-1) != 0 {
		return fmt.Errorf("branch: BTB set count %d not a power of two", sets)
	}
	if c.PHTEntries&(c.PHTEntries-1) != 0 {
		return fmt.Errorf("branch: PHT entries %d not a power of two", c.PHTEntries)
	}
	if c.HistoryLen < 0 || c.HistoryLen > 32 {
		return fmt.Errorf("branch: history length %d out of range", c.HistoryLen)
	}
	return nil
}

// Predictor is the front-end prediction state.
type Predictor struct {
	cfg Config

	btb *setassoc.Table[uint64]

	pht     []uint8 // 2-bit saturating counters
	phtMask uint64
	ghr     uint64
	ghrMask uint64

	ras    []uint64
	rasTop int // index of next push slot
	rasLen int

	condLookups  uint64
	rasUnderflow uint64
}

// New constructs a predictor, panicking on invalid configuration.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Predictor{
		cfg:     cfg,
		btb:     setassoc.New[uint64](cfg.BTBEntries/cfg.BTBWays, cfg.BTBWays),
		pht:     make([]uint8, cfg.PHTEntries),
		phtMask: uint64(cfg.PHTEntries - 1),
		ghrMask: (1 << cfg.HistoryLen) - 1,
		ras:     make([]uint64, cfg.RASDepth),
	}
	// Weakly taken start state, the usual initialisation.
	for i := range p.pht {
		p.pht[i] = 2
	}
	return p
}

// Clone returns an independent copy of the predictor: BTB contents,
// pattern history, global history, return stack and counters.
func (p *Predictor) Clone() *Predictor {
	c := *p
	c.btb = p.btb.Clone()
	c.pht = append([]uint8(nil), p.pht...)
	c.ras = append([]uint64(nil), p.ras...)
	return &c
}

// btbKey derives the BTB index/tag key from a branch PC.  Hardware
// BTBs index above the low in-fetch-block offset bits; rotating the
// two lowest bits away (injective, so tags never falsely match) keeps
// an index stride of 4 for the 16-byte-spaced PLT trampolines — they
// cluster into a quarter of the sets, modelling the BTB pressure the
// paper attributes to trampolines without degenerate LRU thrash.
func btbKey(pc uint64) uint64 { return bits.RotateLeft64(pc, 62) }

// PredictTarget returns the predicted target for the branch at pc,
// with ok reporting whether the BTB held an entry.
func (p *Predictor) PredictTarget(pc uint64) (target uint64, ok bool) {
	return p.btb.Lookup(btbKey(pc))
}

// UpdateTarget installs the resolved target for pc in the BTB.  This
// is the standard back-end feedback path — and the single point where
// the ABTB's substituted target enters the front end.
func (p *Predictor) UpdateTarget(pc, target uint64) {
	p.btb.Insert(btbKey(pc), target)
}

// InvalidateTarget drops pc's BTB entry if present.
func (p *Predictor) InvalidateTarget(pc uint64) {
	p.btb.Invalidate(btbKey(pc))
}

func (p *Predictor) phtIndex(pc uint64) uint64 {
	return ((pc >> 1) ^ p.ghr) & p.phtMask
}

// PredictCond returns the predicted direction for the conditional
// branch at pc.
func (p *Predictor) PredictCond(pc uint64) bool {
	p.condLookups++
	return p.pht[p.phtIndex(pc)] >= 2
}

// UpdateCond trains the direction predictor with the resolved outcome
// and shifts the global history.
func (p *Predictor) UpdateCond(pc uint64, taken bool) {
	i := p.phtIndex(pc)
	if taken {
		if p.pht[i] < 3 {
			p.pht[i]++
		}
	} else if p.pht[i] > 0 {
		p.pht[i]--
	}
	p.ghr = (p.ghr << 1) & p.ghrMask
	if taken {
		p.ghr |= 1
	}
}

// PushReturn records a return address at a call (fetch-time RAS push).
func (p *Predictor) PushReturn(addr uint64) {
	p.ras[p.rasTop] = addr
	p.rasTop = (p.rasTop + 1) % len(p.ras)
	if p.rasLen < len(p.ras) {
		p.rasLen++
	}
}

// PredictReturn pops and returns the predicted return address, with ok
// false on underflow (deep call chains overwrite older entries).
func (p *Predictor) PredictReturn() (addr uint64, ok bool) {
	if p.rasLen == 0 {
		p.rasUnderflow++
		return 0, false
	}
	p.rasTop = (p.rasTop - 1 + len(p.ras)) % len(p.ras)
	p.rasLen--
	return p.ras[p.rasTop], true
}

// Flush clears all prediction state (context switch).
func (p *Predictor) Flush() {
	p.btb.Clear()
	for i := range p.pht {
		p.pht[i] = 2
	}
	p.ghr = 0
	p.rasLen, p.rasTop = 0, 0
}

// BTBLookups returns the number of BTB probes.
func (p *Predictor) BTBLookups() uint64 { return p.btb.Lookups() }

// BTBMisses returns the number of BTB probes that found no entry.
func (p *Predictor) BTBMisses() uint64 { return p.btb.Misses() }

// BTBEvictions returns the number of BTB conflict replacements — the
// "pressure" metric the paper argues trampolines inflate (§2.2).
func (p *Predictor) BTBEvictions() uint64 { return p.btb.Evictions() }

// BTBOccupancy returns the number of valid BTB entries.
func (p *Predictor) BTBOccupancy() int { return p.btb.Len() }

// CondLookups returns the number of direction predictions made.
func (p *Predictor) CondLookups() uint64 { return p.condLookups }

// RASUnderflows returns the number of return predictions that found an
// empty RAS.
func (p *Predictor) RASUnderflows() uint64 { return p.rasUnderflow }

// ResetStats zeroes counters, preserving learned state.
func (p *Predictor) ResetStats() {
	p.btb.ResetStats()
	p.condLookups = 0
	p.rasUnderflow = 0
}
