// Package memsys assembles the memory system: the cache hierarchy in front
// of the DRAM module, with every program access reported to the PMU. It is
// the seam where the detector's observation points (performance counters)
// and the attack's target (DRAM disturbance) meet.
package memsys

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/pmu"
	"repro/internal/sim"
)

// Config assembles a System.
type Config struct {
	DRAM    dram.Config
	Cache   cache.HierarchyConfig
	PMUSeed uint64
}

// DefaultConfig is the paper's machine: Sandy Bridge caches over the 4 GB
// DDR3 module.
func DefaultConfig(f sim.Freq) Config {
	return Config{
		DRAM:    dram.DefaultConfig(f),
		Cache:   cache.SandyBridgeConfig(),
		PMUSeed: 0x9ebc,
	}
}

// System is the assembled memory system.
type System struct {
	DRAM   *dram.Module
	Caches *cache.Hierarchy
	PMU    *pmu.PMU

	skip skipper // AccessRun's cycle summaries (skip.go)
}

// dramBackend adapts the DRAM module to the cache.Memory interface.
type dramBackend struct {
	m *dram.Module
}

func (b dramBackend) Access(pa uint64, write bool, now sim.Cycles) sim.Cycles {
	return b.m.Access(pa, write, now).Latency
}

// New builds the memory system.
func New(cfg Config) (*System, error) {
	mod, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, fmt.Errorf("memsys: %w", err)
	}
	h, err := cache.NewHierarchy(cfg.Cache, dramBackend{mod})
	if err != nil {
		return nil, fmt.Errorf("memsys: %w", err)
	}
	return &System{
		DRAM:   mod,
		Caches: h,
		PMU:    pmu.New(cfg.PMUSeed, 0), // the default PEBS buffer
	}, nil
}

// Access performs one program load or store: through the caches, possibly
// to DRAM, observed by the PMU. va is carried for the PEBS record; pa
// drives placement.
func (s *System) Access(va, pa uint64, write bool, task, core int, now sim.Cycles) cache.Result {
	res := s.Caches.Access(pa, write, now)
	s.PMU.Observe(pmu.Access{
		VA:      va,
		PA:      pa,
		Write:   write,
		Latency: res.Latency,
		Source:  res.Source,
		LLCMiss: res.LLCMiss,
		Task:    task,
		Core:    core,
		Now:     now,
	})
	return res
}

// ReqKind classifies one request of a batched access run.
type ReqKind uint8

// The request kinds. Loads and stores go through the caches and are observed
// by the PMU; flushes invalidate without a PMU event, exactly as in the
// per-op path.
const (
	ReqLoad ReqKind = iota
	ReqStore
	ReqFlush
)

// Req is one pre-translated memory operation of a homogeneous run.
type Req struct {
	VA   uint64
	PA   uint64
	Kind ReqKind
	// Pos is the request's 1-based position in the iteration of a periodic
	// program running alone on the machine, 0 for any other request. Tagged
	// requests may be served by the cache hierarchy's steady-state replay
	// (cache.Hierarchy.AccessAt), or skipped whole iterations at a time
	// (skip.go), with identical results.
	Pos uint32
}

// RunResult aggregates what AccessRun executed.
type RunResult struct {
	// Executed counts requests completed: the prefix reqs[:Executed], or,
	// after a skipped run past the end of a ring window, that many of the
	// program's operations from reqs[0].
	Executed int
	// Skipped counts the whole iterations among them that the iteration
	// skip applied (skip.go), SkipRuns the runs it applied them in,
	// SkippedReads their DRAM reads, and SteadyReads those among the reads
	// that the steady repeat applied (dram.Module.ReadRefs).
	Skipped      int
	SkipRuns     int
	SkippedReads int
	SteadyReads  int
	Loads        uint64
	Stores       uint64
	Flushes      uint64
	// MemCycles is the summed load/store latency; flush latency is excluded,
	// matching the per-op accounting in the machine.
	MemCycles sim.Cycles
	// LastLatency is the latency of the last load or store executed; HadMem
	// reports whether there was one (flush-only runs leave the caller's
	// last-latency register untouched).
	LastLatency sim.Cycles
	HadMem      bool
}

// AccessRun executes a prefix of reqs as one batched run: each request goes
// through the caches (and PMU, for loads and stores) exactly as Access/Flush
// would, with *now advanced by each latency in place. now aliases the
// executing core's clock so PMI charges (which the PMU's sample hook applies
// through the machine) land between the observation and the latency charge,
// byte-identical to the per-op path.
//
// The run stops early — always after completing a request, never mid-request
// — when *now reaches stopAt or when *kgen moves (the caller's kernel
// generation counter; timer arming from a PMI handler invalidates the
// caller's planned horizon). The first request executes unconditionally; the
// caller guarantees *now < stopAt on entry.
//
// Overflow delivery stays exact without per-access checks: a budget of
// overflow-free accesses from the PMU lets the hot loop count with
// CountAccess and sample through WantSample/TakeSample, falling back to a
// full Observe whenever the budget is spent, and any overflow-configuration
// change (arming from a sample hook, delivery, re-arming from a handler)
// re-prices the budget.
//
// Requests tagged with their position in a periodic program's iteration
// (Req.Pos) go through the hierarchy's AccessAt/FlushAt, which may replay a
// repeating cache state; DRAM and the PMU still see every access live.
// When reqs is a window of the program's request ring, which repeats with
// period iter from any position, iter is the length of its iteration and
// span how many operations the program has left from reqs[0], at least
// len(reqs). Then runs of whole iterations from a request that opens one
// may be applied at once (skip.go), past the window's end up to span, so
// Executed may exceed len(reqs); AccessRun returns after a run that passes
// the window's end. iter and span are 0 for any other run.
func (s *System) AccessRun(reqs []Req, iter, span int, task, core int, now *sim.Cycles, stopAt sim.Cycles, kgen *uint64) RunResult {
	var r RunResult
	p := s.PMU
	caches := s.Caches
	gen0 := *kgen
	pgen := p.ConfigGen()
	bound := p.AccessesUntilOverflow()
	for i := 0; i < len(reqs); i++ {
		req := &reqs[i]
		if req.Pos == 1 && iter > 0 && iter <= len(reqs)-i {
			if n := s.skipRun(reqs[i:], iter, span-i, now, stopAt, &bound, &r); n > 0 {
				i += n*iter - 1
				continue
			}
		}
		if req.Kind == ReqFlush {
			var lat sim.Cycles
			if req.Pos == 0 {
				lat, _ = caches.Flush(req.PA, *now)
			} else {
				lat, _ = caches.FlushAt(req.PA, req.Pos, *now)
			}
			*now += lat
			r.Flushes++
			r.Executed++
		} else {
			write := req.Kind == ReqStore
			t := *now
			var res cache.Result
			if req.Pos == 0 {
				res = caches.Access(req.PA, write, t)
			} else {
				res = caches.AccessAt(req.PA, write, req.Pos, t)
			}
			if bound == 0 {
				p.Observe(pmu.Access{
					VA:      req.VA,
					PA:      req.PA,
					Write:   write,
					Latency: res.Latency,
					Source:  res.Source,
					LLCMiss: res.LLCMiss,
					Task:    task,
					Core:    core,
					Now:     t,
				})
				pgen = p.ConfigGen()
				bound = p.AccessesUntilOverflow()
			} else {
				// Observe minus the overflow check, unrolled so the Access
				// record is only built when a PEBS record will actually be
				// taken.
				p.CountAccess(write, res.LLCMiss)
				if p.WantSample(write, res.Latency, t) {
					p.TakeSample(pmu.Access{
						VA:      req.VA,
						PA:      req.PA,
						Write:   write,
						Latency: res.Latency,
						Source:  res.Source,
						LLCMiss: res.LLCMiss,
						Task:    task,
						Core:    core,
						Now:     t,
					})
				}
				bound--
				if g := p.ConfigGen(); g != pgen {
					pgen = g
					bound = p.AccessesUntilOverflow()
				}
			}
			*now += res.Latency
			r.LastLatency = res.Latency
			r.HadMem = true
			r.MemCycles += res.Latency
			if write {
				r.Stores++
			} else {
				r.Loads++
			}
			r.Executed++
		}
		if *now >= stopAt || *kgen != gen0 {
			break
		}
	}
	return r
}

// Flush performs CLFLUSH of pa, returning the latency charged to the core.
func (s *System) Flush(pa uint64, now sim.Cycles) sim.Cycles {
	lat, _ := s.Caches.Flush(pa, now)
	return lat
}

// KernelRead issues an uncached read of pa directly to DRAM — the selective
// refresh primitive. (ANVIL's kernel module reads a word from the victim
// row; going through the caches would defeat the refresh on a hit, so the
// kernel uses an uncached access.) The PMU does not observe it: the
// detector filters its own kernel-thread accesses. The DRAM access latency
// is returned so the caller can charge it to the executing core.
func (s *System) KernelRead(pa uint64, now sim.Cycles) sim.Cycles {
	return s.DRAM.Access(pa, false, now).Latency
}
