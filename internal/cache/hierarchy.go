package cache

import (
	"fmt"

	"repro/internal/sim"
)

// DataSource tells where an access was satisfied — the same information the
// PEBS load-latency facility's "data source" field carries, which ANVIL uses
// to confirm that sampled loads actually reached DRAM.
type DataSource int

// Data sources, nearest first.
const (
	SrcL1 DataSource = iota + 1
	SrcL2
	SrcL3
	SrcDRAM
)

func (s DataSource) String() string {
	switch s {
	case SrcL1:
		return "L1"
	case SrcL2:
		return "L2"
	case SrcL3:
		return "L3"
	case SrcDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("DataSource(%d)", int(s))
	}
}

// Memory is the backing store beneath the hierarchy (the DRAM module, via
// the memsys adapter). Access returns the access latency; writebacks are
// posted with their own calls.
type Memory interface {
	Access(pa uint64, write bool, now sim.Cycles) sim.Cycles
}

// Result describes one access through the hierarchy.
type Result struct {
	Latency sim.Cycles
	Source  DataSource
	LLCMiss bool
	// Writebacks counts dirty lines pushed to memory as a side effect.
	Writebacks int
}

// HierarchyConfig describes the full cache hierarchy.
type HierarchyConfig struct {
	Levels       []LevelConfig // ordered nearest (L1) to farthest (LLC)
	FlushLatency sim.Cycles    // CLFLUSH cost as seen by the executing core
	Seed         uint64
}

// SandyBridgeConfig models the i5-2540M used throughout the paper:
// 32 KB 8-way L1D, 256 KB 8-way L2, and a 3 MB 12-way inclusive LLC split
// into two address-hashed slices (one per core), with Bit-PLRU replacement —
// the policy the authors identified on their machine.
func SandyBridgeConfig() HierarchyConfig {
	return HierarchyConfig{
		Levels: []LevelConfig{
			{Name: "L1D", SizeKB: 32, Ways: 8, Slices: 1, Policy: TrueLRU, Latency: 4, Throughput: 2},
			{Name: "L2", SizeKB: 256, Ways: 8, Slices: 1, Policy: TrueLRU, Latency: 12, Throughput: 6},
			{Name: "LLC", SizeKB: 3072, Ways: 12, Slices: 2, Policy: BitPLRU, Latency: 29, Throughput: 10},
		},
		// CLFLUSH retires quickly; the flush itself proceeds mostly in the
		// background, overlapped with the next access.
		FlushLatency: 8,
		Seed:         0xcace,
	}
}

// Hierarchy is an inclusive multi-level cache in front of a Memory.
type Hierarchy struct {
	cfg     HierarchyConfig
	levels  []*Level
	mem     Memory
	stats   HierarchyStats
	lastHit int // level index of the previous access's hit, -1 otherwise

	// Per-level miss hints from the current access's probes (global set
	// index, first invalid way), letting fillAbove skip the scans probe
	// already did. Scratch state only — never carried across accesses.
	setHint  []int
	freeHint []int

	// Tags Flush proved absent from every level. The access that follows a
	// CLFLUSH of the same line — the hammer idiom this simulator spends its
	// life in — skips the per-level tag scans and goes straight to the miss
	// path. Two slots cover the double-sided pattern; a slot is consumed by
	// the access that uses it.
	flushedTag [2]uint64 // ^0 when empty
	flushedPos int

	// rp replays the periodic cache state of a hammer loop (replay.go).
	rp replay
}

// HierarchyStats aggregates whole-hierarchy activity.
type HierarchyStats struct {
	Loads     uint64
	Stores    uint64
	LLCMisses uint64
	MemReads  uint64
	MemWrites uint64
	Flushes   uint64
}

// NewHierarchy builds the hierarchy over the given memory.
func NewHierarchy(cfg HierarchyConfig, mem Memory) (*Hierarchy, error) {
	if len(cfg.Levels) == 0 {
		return nil, fmt.Errorf("cache: hierarchy needs at least one level")
	}
	if mem == nil {
		return nil, fmt.Errorf("cache: hierarchy needs a memory backend")
	}
	rng := sim.NewRand(cfg.Seed)
	h := &Hierarchy{
		cfg:        cfg,
		mem:        mem,
		lastHit:    -1,
		setHint:    make([]int, len(cfg.Levels)),
		freeHint:   make([]int, len(cfg.Levels)),
		flushedTag: [2]uint64{^uint64(0), ^uint64(0)},
	}
	for _, lc := range cfg.Levels {
		l, err := NewLevel(lc, rng.Split())
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, l)
	}
	h.initReplay()
	return h, nil
}

// Level returns the i-th level (0 = L1), with the real cache state. Replayed
// requests (AccessAt) leave it behind until the next hierarchy call, so
// call Level again rather than holding the pointer across a run.
func (h *Hierarchy) Level(i int) *Level {
	h.settle()
	return h.levels[i]
}

// LLC returns the last-level cache, as Level does.
func (h *Hierarchy) LLC() *Level {
	h.settle()
	return h.llc()
}

func (h *Hierarchy) llc() *Level { return h.levels[len(h.levels)-1] }

// Stats returns a snapshot of the hierarchy counters.
func (h *Hierarchy) Stats() HierarchyStats {
	h.settle()
	return h.stats
}

// lineAlign truncates an address to its line base.
func lineAlign(pa uint64) uint64 { return pa &^ (LineSize - 1) }

// Access performs a load or store of pa at simulated time now.
func (h *Hierarchy) Access(pa uint64, write bool, now sim.Cycles) Result {
	h.settle()
	pa = lineAlign(pa)
	if write {
		h.stats.Stores++
	} else {
		h.stats.Loads++
	}
	if t := pa >> lineShift; t == h.flushedTag[0] || t == h.flushedTag[1] {
		// The line was flushed out of every level and nothing has refilled
		// it: a guaranteed full miss. Count the per-level misses and gather
		// the fill hints, but skip the tag scans. Both slots can hold the
		// tag (a double flush), and the refill invalidates both.
		if t == h.flushedTag[0] {
			h.flushedTag[0] = ^uint64(0)
		}
		if t == h.flushedTag[1] {
			h.flushedTag[1] = ^uint64(0)
		}
		for _, l := range h.levels {
			l.stats.Misses++
		}
		return h.missEverywhere(pa, write, now, false)
	}
	for i, l := range h.levels {
		hit, setIdx, freeWay := l.probe(pa, write && i == 0)
		if hit {
			lat := l.cfg.Latency
			if h.lastHit == i && l.cfg.Throughput > 0 {
				lat = l.cfg.Throughput // back-to-back hits pipeline
			}
			h.lastHit = i
			res := Result{Latency: lat, Source: DataSource(i + 1)}
			// Fill the levels above the hit (inclusive hierarchy).
			res.Writebacks += h.fillAbove(i, pa, write, now)
			return res
		}
		h.setHint[i] = setIdx
		h.freeHint[i] = freeWay
	}
	return h.missEverywhere(pa, write, now, true)
}

// missEverywhere is the tail of Access once every level has missed: fetch
// from memory and fill the whole hierarchy. Stores allocate via
// read-for-ownership, so the memory access is a read either way.
func (h *Hierarchy) missEverywhere(pa uint64, write bool, now sim.Cycles, hinted bool) Result {
	h.lastHit = -1
	h.stats.LLCMisses++
	llcLat := h.llc().cfg.Latency
	memLat := h.mem.Access(pa, false, now+llcLat)
	h.stats.MemReads++
	res := Result{Latency: llcLat + memLat, Source: SrcDRAM, LLCMiss: true}
	res.Writebacks += h.fill(len(h.levels), pa, write, now, hinted)
	return res
}

// fillAbove inserts pa into every level above `from` (exclusive), handling
// evictions: inclusive back-invalidation for LLC victims and dirty
// writebacks to the level below or to memory. It returns the number of
// memory writebacks performed.
func (h *Hierarchy) fillAbove(from int, pa uint64, write bool, now sim.Cycles) int {
	// Every level above `from` just missed, so its probe hints are fresh;
	// they stay valid until something mutates the sets they describe, which
	// only the back-invalidation in fill does.
	return h.fill(from, pa, write, now, true)
}

// fill inserts pa into every level above `from` (exclusive); see fillAbove.
// When hinted is false (the flushed-line fast path, where no probes ran),
// each level rescans for its own slot.
func (h *Hierarchy) fill(from int, pa uint64, write bool, now sim.Cycles, hinted bool) int {
	wb := 0
	for i := from - 1; i >= 0; i-- {
		var ev Evicted
		var evicted bool
		if hinted {
			ev, evicted = h.levels[i].fillAt(h.setHint[i], h.freeHint[i], pa, write && i == 0)
		} else {
			ev, evicted = h.levels[i].Fill(pa, write && i == 0)
		}
		if !evicted {
			continue
		}
		if h.rp.tracing {
			h.traceLine(ev.PA)
		}
		dirty := ev.Dirty
		if i == len(h.levels)-1 {
			// LLC victim: back-invalidate the inner levels (inclusion).
			for j := 0; j < i; j++ {
				if present, d := h.levels[j].Invalidate(ev.PA); present && d {
					dirty = true
				}
			}
			// The back-invalidation may have freed a way below an inner
			// level's hint; rescan from scratch for the remaining fills.
			hinted = false
			if dirty {
				h.mem.Access(ev.PA, true, now)
				h.stats.MemWrites++
				wb++
			}
			continue
		}
		// Inner-level victim: push dirty data down to the first level that
		// holds the line. The next level may have evicted it earlier in this
		// same fill (inner levels are not inclusive of each other); the LLC
		// holds it by inclusion, and memory takes it if nothing does.
		if dirty {
			wb += h.writeBack(i+1, ev.PA, now)
		}
	}
	return wb
}

// writeBack marks the dirty line pa dirty in the first level from `from` on
// that holds it, or writes it to memory when none does, returning the
// number of memory writebacks.
func (h *Hierarchy) writeBack(from int, pa uint64, now sim.Cycles) int {
	for _, l := range h.levels[from:] {
		if l.MarkDirty(pa) {
			return 0
		}
	}
	h.mem.Access(pa, true, now)
	h.stats.MemWrites++
	return 1
}

// Flush implements CLFLUSH: the line is invalidated in every level and a
// dirty copy is written back to memory. It returns the latency charged to
// the executing core and the number of memory writebacks.
func (h *Hierarchy) Flush(pa uint64, now sim.Cycles) (sim.Cycles, int) {
	h.settle()
	pa = lineAlign(pa)
	h.stats.Flushes++
	dirty := false
	for _, l := range h.levels {
		if present, d := l.Invalidate(pa); present && d {
			dirty = true
		}
	}
	wb := 0
	if dirty {
		h.mem.Access(pa, true, now)
		h.stats.MemWrites++
		wb = 1
	}
	h.flushedTag[h.flushedPos] = pa >> lineShift
	h.flushedPos ^= 1
	return h.cfg.FlushLatency, wb
}

// Contains reports whether pa is resident in any level.
func (h *Hierarchy) Contains(pa uint64) bool {
	h.settle()
	pa = lineAlign(pa)
	for _, l := range h.levels {
		if l.Lookup(pa) {
			return true
		}
	}
	return false
}
