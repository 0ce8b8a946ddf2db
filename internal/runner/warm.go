package runner

import (
	"sync"

	"repro/internal/core"
	"repro/internal/workload"
)

// Warm-state checkpoints (DESIGN.md §16).  Jobs that differ only in
// measure budget, sampling or timeline settings run an identical warm
// phase: the same generated workload, link, driver seed and warmup
// requests leave the same warmed system behind.  The runner counts, per
// warm key, the jobs that have not yet started their warm phase; a job
// that finishes warming while another such job is waiting stores a deep
// copy of its warmed system and driver, and the waiting jobs start from
// that checkpoint instead of warming from cold.  Results are
// bit-identical either way, because a clone carries every piece of
// simulation state and continues exactly as the source would.

// warmKey identifies a warm phase: everything that determines the
// system and driver state at the end of WarmupContext.  The driver
// seed is DriverSeed(seed), so the seed covers it; measure budget,
// sampling and timeline settings only act after warmup and stay out.
type warmKey struct {
	workload string
	config   ConfigKind
	seed     uint64
	warm     int
}

func warmKeyOf(spec JobSpec) warmKey {
	return warmKey{workload: spec.Workload, config: spec.Config, seed: spec.Seed, warm: spec.Warm}
}

// checkpoint is one warmed system and its driver, held for the queued
// jobs that want it.  The system is stored as a compact snapshot (see
// cpu.CPU.Snapshot): a held checkpoint costs about a megabyte instead
// of the several a full L2 and execution-count pages take.
//
// mu serialises clones, because cloning writes the source image's
// copy-on-write bookkeeping; it is held while the capturing job fills
// the checkpoint in, so early claimants wait.  clones counts claimants
// that will copy the checkpoint; the last claimant, which takes the
// checkpoint itself, waits for them first.
type checkpoint struct {
	mu     sync.Mutex
	clones sync.WaitGroup
	sys    *core.System
	drv    *workload.Driver
}

// restore hands a claimant its warmed system and driver: a clone while
// other jobs still want the checkpoint, or the checkpoint itself,
// expanded, for the last one, which the store has already dropped.
// It returns nil if the capture never completed (the capturing copy
// panicked); the claimant then warms from cold.
func (cp *checkpoint) restore(last bool) (*core.System, *workload.Driver) {
	if last {
		cp.clones.Wait()
	} else {
		defer cp.clones.Done()
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.drv == nil {
		return nil, nil
	}
	if last {
		cp.sys.CPU().Expand()
		return cp.sys, cp.drv
	}
	sys := cp.sys.Clone()
	return sys, cp.drv.Clone(sys)
}

// warmStore tracks demand per warm key and holds checkpoints.  It
// keeps one invariant: a checkpoint is held only while its key's
// demand is positive, so it needs no size bound and nothing outlives
// the jobs that wanted it.  A nil *warmStore disables checkpoints.
type warmStore struct {
	m *metrics

	mu   sync.Mutex
	want map[warmKey]int
	held map[warmKey]*checkpoint
}

func newWarmStore(m *metrics) *warmStore {
	return &warmStore{m: m, want: make(map[warmKey]int), held: make(map[warmKey]*checkpoint)}
}

// add counts one more job that will run k's warm phase.
func (s *warmStore) add(k warmKey) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.want[k]++
	s.mu.Unlock()
}

// release withdraws a job that will no longer run k's warm phase (it
// failed or was cancelled before starting it), dropping the checkpoint
// if nobody else wants it.
func (s *warmStore) release(k warmKey) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.decLocked(k)
	s.mu.Unlock()
}

// claim consumes one unit of k's demand for a job starting its warm
// phase and returns the checkpoint held for k, if any.  last reports
// that no other job wants it: the store has dropped it and the caller
// owns it outright.  A caller given a checkpoint must call its restore
// with last.
func (s *warmStore) claim(k warmKey) (cp *checkpoint, last bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cp = s.held[k]
	last = s.decLocked(k)
	if cp != nil && !last {
		cp.clones.Add(1)
	}
	return cp, last
}

// decLocked decrements k's demand and, when it reaches zero, drops the
// held checkpoint.  It reports whether the demand reached zero.
// Caller holds s.mu.
func (s *warmStore) decLocked(k warmKey) bool {
	if s.want[k]--; s.want[k] > 0 {
		return false
	}
	delete(s.want, k)
	if _, ok := s.held[k]; ok {
		delete(s.held, k)
		s.m.warmHeld.Dec()
	}
	return true
}

// offer captures a checkpoint of a just-warmed system when another job
// wants k and none is held yet, reporting whether it did.  The copy is
// made outside s.mu, with the checkpoint already published and locked
// so claimants wait for it.
func (s *warmStore) offer(k warmKey, sys *core.System, drv *workload.Driver) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	if s.want[k] == 0 || s.held[k] != nil {
		s.mu.Unlock()
		return false
	}
	cp := &checkpoint{}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	s.held[k] = cp
	s.m.warmCaptures.Inc()
	s.m.warmHeld.Inc()
	s.mu.Unlock()
	sys = sys.Snapshot()
	cp.sys, cp.drv = sys, drv.Clone(sys)
	return true
}
