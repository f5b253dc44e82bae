// Package workload provides synthetic benchmark programs standing in for
// the SPEC2006 integer suite used in the paper's evaluation (reference [9]).
//
// Each profile is characterised by the properties that matter to ANVIL and
// to the refresh-rate experiments — nothing else about SPEC is relevant to
// the reproduction:
//
//   - the sustained LLC miss rate, which determines how often the detector's
//     stage-1 threshold (20K misses / 6 ms) is crossed;
//   - the DRAM row re-use distribution of those misses (streaming scans vs.
//     skewed pointer-chasing), which determines how often sampled rows
//     cluster enough to look like rowhammer aggressors (false positives);
//   - the load/store mix, which selects which PEBS facility ANVIL samples;
//   - memory-boundedness, which determines sensitivity to refresh blocking
//     (the doubled-refresh-rate baseline).
//
// The twelve profiles are calibrated so that the four memory-intensive
// benchmarks (mcf, libquantum, omnetpp, xalancbmk) cross stage 1 in ≳95% of
// windows, the four compute-bound ones (h264ref, gobmk, sjeng, hmmer) in
// <10%, matching §4.3 of the paper.
package workload

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Pattern selects how cold (cache-missing) accesses pick addresses.
type Pattern int

const (
	// Stream walks the footprint sequentially line by line, like
	// libquantum's vector sweeps: misses spread evenly across DRAM rows.
	Stream Pattern = iota
	// Skewed picks a row with a power-law bias and a uniform line within
	// it, like pointer-chasing over skewed data structures: a few rows
	// absorb a disproportionate share of the misses.
	Skewed
)

// Profile parameterises one synthetic benchmark.
type Profile struct {
	Name        string
	Pattern     Pattern
	FootprintMB int        // cold region size; must exceed the LLC to miss
	Skew        float64    // >= 1; 1 = uniform row choice (Skewed only)
	HotPerCold  int        // cache-resident accesses interleaved per cold access
	Compute     sim.Cycles // mean compute cycles between operations
	StoreFrac   float64    // fraction of memory operations that are stores
	Seed        uint64

	// Burst phases model the program-phase behaviour of the intermediate
	// benchmarks: for BurstFrac of every BurstPeriod memory operations, the
	// compute per operation drops by BurstSpeedup, spiking the LLC miss
	// rate. This is what makes a benchmark cross ANVIL's stage-1 threshold
	// in *some* windows rather than all or none.
	BurstPeriod  uint64  // memory ops per phase cycle (0 = no bursts)
	BurstFrac    float64 // fraction of the cycle spent in the bursty phase
	BurstSpeedup float64 // compute divisor during bursts (>1)

	// Active-region (block-processing) behaviour: a RegionFrac share of
	// cold accesses lands uniformly in a compact RegionKB window that
	// slides forward every RegionPeriod cold accesses — bzip2's block
	// sorting, gcc's per-function passes. Fresh regions are always cache
	// cold, so their misses concentrate on few DRAM rows: the "thrashing
	// access patterns" behind ANVIL's (rare) false positives.
	RegionKB     int     // active region size (0 = no region behaviour)
	RegionFrac   float64 // fraction of cold accesses into the region
	RegionPeriod uint64  // cold accesses before the region slides
}

// Validate checks the profile.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile needs a name")
	case p.FootprintMB <= 0:
		return fmt.Errorf("workload: %s: footprint must be positive", p.Name)
	case p.Skew < 1 && p.Pattern == Skewed:
		return fmt.Errorf("workload: %s: skew must be >= 1, got %g", p.Name, p.Skew)
	case p.HotPerCold < 0:
		return fmt.Errorf("workload: %s: negative HotPerCold", p.Name)
	case p.StoreFrac < 0 || p.StoreFrac > 1:
		return fmt.Errorf("workload: %s: StoreFrac out of range: %g", p.Name, p.StoreFrac)
	case p.BurstPeriod > 0 && (p.BurstFrac <= 0 || p.BurstFrac >= 1):
		return fmt.Errorf("workload: %s: BurstFrac must be in (0,1) with bursts on", p.Name)
	case p.BurstPeriod > 0 && p.BurstSpeedup <= 1:
		return fmt.Errorf("workload: %s: BurstSpeedup must exceed 1", p.Name)
	case p.RegionKB < 0 || p.RegionKB > p.FootprintMB<<10:
		return fmt.Errorf("workload: %s: RegionKB must be within the footprint", p.Name)
	case p.RegionKB > 0 && (p.RegionFrac <= 0 || p.RegionFrac > 1):
		return fmt.Errorf("workload: %s: RegionFrac must be in (0,1] with a region", p.Name)
	case p.RegionKB > 0 && p.RegionPeriod == 0:
		return fmt.Errorf("workload: %s: RegionPeriod must be positive with a region", p.Name)
	}
	return nil
}

// SPEC2006 returns the twelve SPEC2006-integer stand-in profiles.
func SPEC2006() []Profile {
	return []Profile{
		{Name: "astar", Pattern: Skewed, FootprintMB: 16, Skew: 1.9, HotPerCold: 3, Compute: 220, StoreFrac: 0.20, Seed: 101,
			BurstPeriod: 500_000, BurstFrac: 0.35, BurstSpeedup: 2.3,
			RegionKB: 512, RegionFrac: 0.7, RegionPeriod: 11_700},
		{Name: "bzip2", Pattern: Skewed, FootprintMB: 8, Skew: 2.4, HotPerCold: 2, Compute: 170, StoreFrac: 0.35, Seed: 102,
			BurstPeriod: 600_000, BurstFrac: 0.50, BurstSpeedup: 2.4,
			RegionKB: 512, RegionFrac: 0.75, RegionPeriod: 10_900},
		{Name: "gcc", Pattern: Skewed, FootprintMB: 12, Skew: 2.3, HotPerCold: 2, Compute: 185, StoreFrac: 0.30, Seed: 103,
			BurstPeriod: 600_000, BurstFrac: 0.45, BurstSpeedup: 2.0,
			RegionKB: 768, RegionFrac: 0.65, RegionPeriod: 18_900},
		{Name: "gobmk", Pattern: Skewed, FootprintMB: 8, Skew: 2.3, HotPerCold: 8, Compute: 650, StoreFrac: 0.25, Seed: 104,
			BurstPeriod: 750_000, BurstFrac: 0.55, BurstSpeedup: 22,
			RegionKB: 768, RegionFrac: 0.6, RegionPeriod: 20_500},
		{Name: "h264ref", Pattern: Stream, FootprintMB: 4, Skew: 1, HotPerCold: 12, Compute: 900, StoreFrac: 0.30, Seed: 105},
		{Name: "hmmer", Pattern: Skewed, FootprintMB: 4, Skew: 1.2, HotPerCold: 16, Compute: 1100, StoreFrac: 0.45, Seed: 106},
		{Name: "libquantum", Pattern: Stream, FootprintMB: 32, Skew: 1, HotPerCold: 0, Compute: 130, StoreFrac: 0.25, Seed: 107},
		{Name: "mcf", Pattern: Skewed, FootprintMB: 48, Skew: 1.2, HotPerCold: 1, Compute: 90, StoreFrac: 0.06, Seed: 108},
		{Name: "omnetpp", Pattern: Skewed, FootprintMB: 24, Skew: 1.3, HotPerCold: 1, Compute: 130, StoreFrac: 0.30, Seed: 109},
		{Name: "perlbench", Pattern: Skewed, FootprintMB: 8, Skew: 1.5, HotPerCold: 10, Compute: 750, StoreFrac: 0.35, Seed: 110,
			BurstPeriod: 420_000, BurstFrac: 0.50, BurstSpeedup: 12,
			RegionKB: 2048, RegionFrac: 0.5, RegionPeriod: 64_000},
		{Name: "sjeng", Pattern: Skewed, FootprintMB: 8, Skew: 1.3, HotPerCold: 12, Compute: 950, StoreFrac: 0.30, Seed: 111},
		{Name: "xalancbmk", Pattern: Skewed, FootprintMB: 24, Skew: 1.7, HotPerCold: 1, Compute: 140, StoreFrac: 0.25, Seed: 112,
			RegionKB: 2048, RegionFrac: 0.2, RegionPeriod: 163_000},
	}
}

// MemoryIntensive lists the benchmarks the paper identifies as crossing the
// stage-1 threshold in 95-99% of windows.
func MemoryIntensive() []string {
	return []string{"libquantum", "omnetpp", "mcf", "xalancbmk"}
}

// ComputeBound lists the benchmarks crossing stage 1 in <10% of windows.
func ComputeBound() []string {
	return []string{"h264ref", "gobmk", "sjeng", "hmmer"}
}

// HeavyLoadNames lists the heavy-load trio of the paper's detection
// experiments by profile name: "mcf, libquantum and omnetpp running at the
// same time".
func HeavyLoadNames() []string { return []string{"mcf", "libquantum", "omnetpp"} }

// HeavyLoadTrio resolves HeavyLoadNames to profiles. It errors (rather than
// panics) on a missing profile so callers that assemble scenarios from
// configuration keep their error path.
func HeavyLoadTrio() ([]Profile, error) {
	var out []Profile
	for _, name := range HeavyLoadNames() {
		p, ok := ByName(name)
		if !ok {
			return nil, fmt.Errorf("workload: missing heavy-load profile %q", name)
		}
		out = append(out, p)
	}
	return out, nil
}

// ByName returns the named SPEC profile.
func ByName(name string) (Profile, bool) {
	for _, p := range SPEC2006() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

const (
	hotBufBytes = 16 << 10 // cache-resident hot buffer
	hotBase     = uint64(0x10_0000)
	coldBase    = uint64(0x4000_0000)
	rowBytes    = 8192 // matches the DRAM row size for row-locality shaping
)

// Synthetic is the machine.Program implementation of a Profile.
type Synthetic struct {
	prof Profile
	rng  *sim.Rand

	footprint uint64
	rows      uint64

	// OpLimit stops the program after this many memory operations
	// (0 = run forever). Fixed-work runs make execution-time overheads
	// directly comparable across configurations.
	opLimit uint64

	// Generation-side state: everything that decides *which* operations the
	// program produces. The batched machine pulls operations ahead of
	// execution (NextRun), so none of this may be externally observable.
	genMemOps uint64 // memory operations generated (drives bursts, opLimit)
	phase     int    // 0 = memory op next, 1 = compute op next
	cold      int    // countdown of hot accesses until the next cold access
	streamPos uint64

	coldOps    uint64 // cold accesses issued (drives region rotation)
	regionBase uint64 // current active-region offset within the footprint

	// Execution-side state: committed operations, the externally observable
	// progress backing MemOps.
	execMemOps uint64

	pending   []machine.Op // generated but not yet committed operations
	pendStart int          // committed prefix of pending
}

// New builds the synthetic program for a profile.
func New(prof Profile) (*Synthetic, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	fp := uint64(prof.FootprintMB) << 20
	return &Synthetic{
		prof:      prof,
		rng:       sim.NewRand(prof.Seed),
		footprint: fp,
		rows:      fp / rowBytes,
	}, nil
}

// WithOpLimit makes the program finish after n memory operations.
func (s *Synthetic) WithOpLimit(n uint64) *Synthetic {
	s.opLimit = n
	return s
}

// Name implements machine.Program.
func (s *Synthetic) Name() string { return s.prof.Name }

// MemOps reports memory operations executed so far (committed by the
// machine; operations generated ahead by the batched path do not count
// until they run).
func (s *Synthetic) MemOps() uint64 { return s.execMemOps }

// Init implements machine.Program: maps the hot buffer and the footprint.
func (s *Synthetic) Init(p *machine.Proc) error {
	if err := p.AS.Map(hotBase, hotBufBytes); err != nil {
		return err
	}
	return p.AS.Map(coldBase, s.footprint)
}

// inBurst reports whether the program is in the high-intensity slice of its
// current phase cycle.
func (s *Synthetic) inBurst() bool {
	if s.prof.BurstPeriod == 0 {
		return false
	}
	return s.genMemOps%s.prof.BurstPeriod < uint64(float64(s.prof.BurstPeriod)*s.prof.BurstFrac)
}

// coldAddr picks the next cache-missing address per the profile's pattern.
func (s *Synthetic) coldAddr() uint64 {
	s.coldOps++
	switch s.prof.Pattern {
	case Stream:
		off := s.streamPos * 64
		s.streamPos++
		if off+64 > s.footprint {
			s.streamPos = 0
			off = 0
		}
		return coldBase + off
	default: // Skewed
		if s.prof.RegionKB > 0 && s.rng.Bool(s.prof.RegionFrac) {
			return s.regionAddr()
		}
		u := s.rng.Float64()
		row := uint64(float64(s.rows) * math.Pow(u, s.prof.Skew))
		if row >= s.rows {
			row = s.rows - 1
		}
		line := s.rng.Uint64n(rowBytes / 64)
		return coldBase + row*rowBytes + line*64
	}
}

// regionAddr picks a uniform line within the sliding active region,
// advancing the region every RegionPeriod cold accesses.
func (s *Synthetic) regionAddr() uint64 {
	region := uint64(s.prof.RegionKB) << 10
	if slot := s.coldOps / s.prof.RegionPeriod; true {
		// Deterministic slide: regions tile the footprint in order, like
		// block-structured processing of an input.
		s.regionBase = slot * region % (s.footprint - region + 1)
	}
	return coldBase + s.regionBase + s.rng.Uint64n(region/64)*64
}

// gen produces the next operation of the generation stream, advancing only
// generation-side state. The stream is identical whether operations are
// pulled one at a time (Next) or in runs (NextRun).
func (s *Synthetic) gen() machine.Op {
	if s.opLimit > 0 && s.genMemOps >= s.opLimit {
		return machine.Op{Kind: machine.OpDone}
	}
	if s.phase == 1 {
		s.phase = 0
		c := uint64(s.prof.Compute)
		if s.inBurst() {
			c = uint64(float64(c) / s.prof.BurstSpeedup)
		}
		if c == 0 {
			c = 1
		}
		// +-50% deterministic jitter.
		jit := c/2 + s.rng.Uint64n(c+1)
		return machine.Op{Kind: machine.OpCompute, Cycles: sim.Cycles(jit)}
	}
	s.phase = 1
	s.genMemOps++
	var va uint64
	if s.cold <= 0 {
		va = s.coldAddr()
		s.cold = s.prof.HotPerCold
	} else {
		s.cold--
		va = hotBase + s.rng.Uint64n(hotBufBytes/64)*64
	}
	kind := machine.OpLoad
	if s.rng.Bool(s.prof.StoreFrac) {
		kind = machine.OpStore
	}
	return machine.Op{Kind: kind, VA: va}
}

// commit records one operation as executed.
func (s *Synthetic) commit(op machine.Op) {
	if op.Kind == machine.OpLoad || op.Kind == machine.OpStore {
		s.execMemOps++
	}
}

// Next implements machine.Program: it drains the pregenerated buffer first
// so per-op stepping after a partially executed batch view stays on the
// exact same operation stream.
func (s *Synthetic) Next() machine.Op {
	if s.pendStart < len(s.pending) {
		op := s.pending[s.pendStart]
		s.pendStart++
		s.commit(op)
		return op
	}
	op := s.gen()
	s.commit(op)
	return op
}

// NextRun implements machine.BatchProgram: it tops the pending buffer up to
// max uncommitted operations (stopping at OpDone) and returns them. Nothing
// commits until Advance.
func (s *Synthetic) NextRun(max int) []machine.Op {
	// Reclaim the committed prefix. Under ANVIL, timer and PMU-overflow
	// horizons cut most views short, so the buffer rarely drains fully.
	if s.pendStart > 0 {
		s.pending = s.pending[:copy(s.pending, s.pending[s.pendStart:])]
		s.pendStart = 0
	}
	for len(s.pending) < max {
		if n := len(s.pending); n > 0 && s.pending[n-1].Kind == machine.OpDone {
			break
		}
		s.pending = append(s.pending, s.gen())
	}
	return s.pending
}

// Advance implements machine.BatchProgram.
func (s *Synthetic) Advance(n int) {
	for _, op := range s.pending[s.pendStart : s.pendStart+n] {
		s.commit(op)
	}
	s.pendStart += n
}

var _ machine.BatchProgram = (*Synthetic)(nil)
