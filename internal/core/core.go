// Package core assembles the paper's evaluated systems: a linked
// program image plus a configured CPU, with the measurement plumbing
// (warmup control, per-request latency capture, per-kilo-instruction
// counter derivation) that every experiment shares.
//
// The four system presets mirror the paper's comparison space:
//
//	Base      lazy dynamic linking on an unmodified CPU (the paper's
//	          "Base" columns)
//	Enhanced  lazy dynamic linking with the ABTB mechanism (the
//	          paper's "Enhanced" columns)
//	Eager     BIND_NOW dynamic linking, unmodified CPU (trampolines
//	          still execute; resolution cost moves to load time)
//	Static    static linking, unmodified CPU (the performance upper
//	          bound dynamic linking is measured against)
//	Patched   the software emulation of §4.3: call sites rewritten to
//	          direct calls, ASLR off, libraries within rel32 reach
//
// # Concurrency
//
// The package holds no mutable package-level state: linking and
// simulation read their inputs and write only into the System being
// built or driven.  Independent Systems may therefore be constructed
// and run concurrently from different goroutines — the guarantee
// internal/runner's worker pool is built on.  A single System is NOT
// safe for concurrent use; drive each System from one goroutine.
package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/linker"
	"repro/internal/objfile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ClockGHz is the simulated core clock (Xeon E5450, §4.1).
const ClockGHz = 3.0

// Micros converts a cycle count to microseconds at the model clock.
func Micros(cycles uint64) float64 { return float64(cycles) / (ClockGHz * 1000) }

// Config names a complete system configuration.
type Config struct {
	Label    string
	Linking  linker.Options
	Hardware cpu.Config
}

// Base returns the unmodified system with lazy dynamic linking.
func Base(seed uint64) Config {
	hw := cpu.DefaultConfig()
	hw.Seed = seed
	return Config{
		Label:    "base",
		Linking:  linker.Options{Mode: linker.BindLazy, ASLR: true, Seed: seed},
		Hardware: hw,
	}
}

// Enhanced returns the Base system with the paper's ABTB enabled.
func Enhanced(seed uint64) Config {
	c := Base(seed)
	c.Label = "enhanced"
	hw := cpu.EnhancedConfig()
	hw.Seed = seed
	c.Hardware = hw
	return c
}

// EnhancedARM returns the Enhanced system with ARM-flavoured
// trampolines (paper Fig. 2b) and the pattern window the ABTB needs to
// learn their three-instruction sequence.
func EnhancedARM(seed uint64) Config {
	c := Enhanced(seed)
	c.Label = "enhanced-arm"
	c.Linking.PLT = linker.PLTARM
	a := *c.Hardware.ABTB
	a.PatternWindow = 2
	c.Hardware.ABTB = &a
	return c
}

// BaseARM returns the unmodified system with ARM-flavoured
// trampolines.
func BaseARM(seed uint64) Config {
	c := Base(seed)
	c.Label = "base-arm"
	c.Linking.PLT = linker.PLTARM
	return c
}

// Eager returns BIND_NOW dynamic linking on the unmodified CPU.
func Eager(seed uint64) Config {
	c := Base(seed)
	c.Label = "eager"
	c.Linking.Mode = linker.BindNow
	return c
}

// Static returns static linking on the unmodified CPU.
func Static(seed uint64) Config {
	c := Base(seed)
	c.Label = "static"
	c.Linking.Mode = linker.BindStatic
	return c
}

// Patched returns the §4.3 software emulation: patched call sites on
// the unmodified CPU.
func Patched(seed uint64) Config {
	c := Base(seed)
	c.Label = "patched"
	c.Linking.Mode = linker.BindPatched
	return c
}

// System is a linked image executing on a configured CPU.
type System struct {
	cfg     Config
	img     *linker.Image
	cpu     *cpu.CPU
	rec     *trace.Recorder // measurement window
	lifeRec *trace.Recorder // whole process lifetime
}

// NewSystem links the program under the configuration and prepares a
// CPU with attached trampoline-trace recorders.  NewSystem does not
// mutate app or libs, so concurrent NewSystem calls — even over the
// same objects — are safe; the returned System itself must be driven
// from a single goroutine.
func NewSystem(app *objfile.Object, libs []*objfile.Object, cfg Config) (*System, error) {
	img, err := linker.Link(app, libs, cfg.Linking)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return NewSystemFromImage(img, cfg), nil
}

// NewSystemFromImage wraps an already linked image in a configured
// System — the path internal/pool uses to build jobs from pooled,
// copy-on-write-forked images without re-linking.  The image must have
// been linked with cfg.Linking (the caller keys pooled images by those
// options), and must be private to the returned System: pass a
// linker.Image.Fork of a shared master, never the master itself, since
// driving the System mutates the image's memory and resolution
// counter.
func NewSystemFromImage(img *linker.Image, cfg Config) *System {
	s := &System{
		cfg:     cfg,
		img:     img,
		cpu:     cpu.New(img, cfg.Hardware),
		rec:     trace.NewRecorder(0),
		lifeRec: trace.NewRecorder(0),
	}
	s.attachRecorders()
	return s
}

// Clone returns an independent copy of the system in its current
// state: a clone of the image (copy-on-write memory, resolution count
// kept), a deep copy of the CPU, and copies of both trace recorders
// wired to the new CPU.  Driving the copy leaves the source unchanged
// and vice versa, and the copy continues bit-identically to how the
// source would — the property warm-state checkpoints rest on.  Clone
// mutates the source image's copy-on-write bookkeeping (see
// linker.Image.Fork), so serialise it against every other use of the
// source.
func (s *System) Clone() *System { return s.clone(false) }

// Snapshot is Clone for storage: the copy's CPU is a compact
// cpu.CPU.Snapshot, so the copy must not run until its CPU's Expand;
// Clone of it returns a full, runnable system.
func (s *System) Snapshot() *System { return s.clone(true) }

func (s *System) clone(snapshot bool) *System {
	img := s.img.Clone()
	c := &System{
		cfg:     s.cfg,
		img:     img,
		rec:     s.rec.Clone(),
		lifeRec: s.lifeRec.Clone(),
	}
	if snapshot {
		c.cpu = s.cpu.Snapshot(img)
	} else {
		c.cpu = s.cpu.Clone(img)
	}
	c.attachRecorders()
	return c
}

// attachRecorders fans the CPU's library-call trace point out to both
// the windowed and the lifetime recorder.
func (s *System) attachRecorders() {
	s.cpu.TraceLibCall = func(slot uint64) {
		s.rec.Record(slot)
		s.lifeRec.Record(slot)
	}
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Image returns the linked image.
func (s *System) Image() *linker.Image { return s.img }

// CPU returns the processor model.
func (s *System) CPU() *cpu.CPU { return s.cpu }

// Recorder returns the measurement-window trace recorder.
func (s *System) Recorder() *trace.Recorder { return s.rec }

// LifetimeRecorder returns the recorder covering the whole process
// lifetime including warmup.  The paper's pintool counted distinct
// trampolines over entire multi-hour runs (Table 3, Figures 4-5);
// experiments use this recorder for those artefacts.
func (s *System) LifetimeRecorder() *trace.Recorder { return s.lifeRec }

// RunOnce executes the entry symbol to completion and returns its
// cycle and instruction cost.
func (s *System) RunOnce(entry string) (cpu.RunResult, error) {
	return s.cpu.RunSymbol(entry, 0)
}

// Warmup executes the entry symbol n times and then clears every
// measurement counter, leaving all microarchitectural state (cache
// contents, predictor training, ABTB mappings, resolved GOT entries)
// warm — the steady state the paper measures in.
func (s *System) Warmup(entry string, n int) error {
	for i := 0; i < n; i++ {
		if _, err := s.cpu.RunSymbol(entry, 0); err != nil {
			return fmt.Errorf("core: warmup %d: %w", i, err)
		}
	}
	s.ResetStats()
	return nil
}

// ResetStats clears measurement counters and opens a fresh recorder
// window; the lifetime recorder keeps accumulating.
func (s *System) ResetStats() {
	s.cpu.ResetStats()
	s.rec = trace.NewRecorder(0)
	s.attachRecorders()
}

// MeasureRequests executes the entry symbol n times, returning the
// per-request latencies in microseconds.
func (s *System) MeasureRequests(entry string, n int) (*stats.Sample, error) {
	sample := &stats.Sample{}
	for i := 0; i < n; i++ {
		res, err := s.cpu.RunSymbol(entry, 0)
		if err != nil {
			return nil, fmt.Errorf("core: request %d: %w", i, err)
		}
		sample.Add(Micros(res.Cycles))
	}
	return sample, nil
}

// Counters returns the CPU's counter snapshot.
func (s *System) Counters() cpu.Counters { return s.cpu.Counters() }

// PKI is the paper's per-kilo-instruction counter normalisation
// (Tables 2 and 4).
type PKI struct {
	TrampInstrs float64 // Table 2
	L1IMisses   float64 // Table 4 rows
	ITLBMisses  float64
	L1DMisses   float64
	DTLBMisses  float64
	Mispredicts float64
}

// PKIOf derives the per-kilo-instruction rates from a counter window.
func PKIOf(c cpu.Counters) PKI {
	return PKI{
		TrampInstrs: stats.PerKilo(c.TrampInstrs, c.Instructions),
		L1IMisses:   stats.PerKilo(c.L1IMisses, c.Instructions),
		ITLBMisses:  stats.PerKilo(c.ITLBMisses, c.Instructions),
		L1DMisses:   stats.PerKilo(c.L1DMisses, c.Instructions),
		DTLBMisses:  stats.PerKilo(c.DTLBMisses, c.Instructions),
		Mispredicts: stats.PerKilo(c.Mispredicts, c.Instructions),
	}
}

// PKI returns the per-kilo-instruction rates for the current window.
func (s *System) PKI() PKI { return PKIOf(s.Counters()) }
