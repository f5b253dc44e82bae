package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// LineSize is the cache line size in bytes, fixed at 64 as on every modern
// x86 part (the paper's set-index bits 6..16 assume it).
const LineSize = 64

const lineShift = 6

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name    string
	SizeKB  int
	Ways    int
	Slices  int // >1 enables address-hashed slicing (LLC)
	Policy  PolicyKind
	Latency sim.Cycles // hit latency, in cycles
	// Throughput is the cost of a hit that immediately follows another hit
	// in the same level: out-of-order cores overlap independent cache hits,
	// so back-to-back hits cost pipeline throughput, not full latency.
	// Zero means no overlap (Throughput = Latency).
	Throughput sim.Cycles
}

// Validate checks the level configuration.
func (c LevelConfig) Validate() error {
	if c.SizeKB <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: %s: size and ways must be positive", c.Name)
	}
	if c.Slices <= 0 {
		return fmt.Errorf("cache: %s: slices must be >= 1", c.Name)
	}
	lines := c.SizeKB * 1024 / LineSize
	sets := lines / c.Ways / c.Slices
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache: %s: %dKB/%d-way/%d-slice gives %d sets per slice; must be a positive power of two",
			c.Name, c.SizeKB, c.Ways, c.Slices, sets)
	}
	return nil
}

// A cache line is packed into one word: tag<<2 | dirty<<1 | valid. An
// 8-way set is then exactly 64 bytes — one host cache line — so probing a
// set costs a single cache-line fill on the machine running the simulator.
const (
	lineValid    uint64 = 1 << 0
	lineDirty    uint64 = 1 << 1
	lineTagShift        = 2
)

// Level is a single set-associative, optionally sliced cache level.
//
// All per-line and per-set state lives in flat contiguous arrays indexed by
// (slice*sets+set)*ways+way, and the two policies every shipped
// configuration uses (TrueLRU, BitPLRU) are devirtualized: their state is
// plain per-set metadata (a recency-order byte slice, an MRU-bit word) and
// the hot paths dispatch on it without an interface call. The exotic
// policies of the inference experiment (§2.2) keep the Policy interface.
type Level struct {
	cfg       LevelConfig
	sets      int // sets per slice
	ways      int
	setMask   uint64
	sliceBits uint // log2(Slices), for the slice-hash fold
	sliceMask int
	flat      []uint64 // packed lines, (slice*sets+set)*ways+way
	// invMask tracks each set's invalid ways as a bitmask (bit w set = way w
	// invalid), so the first-invalid-way scans in probe and Fill are a single
	// trailing-zeros count. Nil when ways > 64 (the scans remain).
	invMask []uint64
	stats   LevelStats

	// Devirtualized replacement state; exactly one of these is non-nil,
	// chosen by the policy kind (and associativity limits).
	lruWord  []uint64 // TrueLRU, ways <= 8: one recency word per set, byte i = way at recency i (0 = LRU)
	lruOrder []uint8  // TrueLRU, wider sets: ways entries per set, order[0] is LRU
	plruBits []uint64 // BitPLRU: one MRU-bit word per set
	policies []Policy // everything else, one instance per set

	// MRU line cache: flat index and tag of the last line touched. A repeat
	// access to it — the dominant pattern on the L1 — is served touching a
	// single cache line of simulator state. Only maintained for policies
	// whose Touch is idempotent on the most-recently-touched way (all but
	// SRRIP, whose fill/promote distinction makes a second Touch observable).
	mruIdx  int // -1 when invalid
	mruTag  uint64
	mruSafe bool
}

// LevelStats counts per-level activity.
type LevelStats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	Flushes    uint64
}

// NewLevel builds one cache level. rng seeds the random policy (and is
// shared across sets, which is fine for simulation purposes).
func NewLevel(cfg LevelConfig, rng *sim.Rand) (*Level, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.SizeKB * 1024 / LineSize
	sets := lines / cfg.Ways / cfg.Slices
	l := &Level{
		cfg:       cfg,
		sets:      sets,
		ways:      cfg.Ways,
		setMask:   uint64(sets - 1),
		sliceBits: uint(bits.TrailingZeros(uint(cfg.Slices))),
		sliceMask: cfg.Slices - 1,
		mruIdx:    -1,
		mruSafe:   cfg.Policy != SRRIP,
	}
	total := sets * cfg.Slices
	l.flat = make([]uint64, total*cfg.Ways)
	if cfg.Ways <= 64 {
		full := ^uint64(0) >> (64 - uint(cfg.Ways))
		l.invMask = make([]uint64, total)
		for s := range l.invMask {
			l.invMask[s] = full
		}
	}
	switch {
	case cfg.Policy == TrueLRU && cfg.Ways <= 8:
		var init uint64
		for w := cfg.Ways - 1; w >= 0; w-- {
			init = init<<8 | uint64(w)
		}
		l.lruWord = make([]uint64, total)
		for s := range l.lruWord {
			l.lruWord[s] = init
		}
	case cfg.Policy == TrueLRU && cfg.Ways <= 255:
		l.lruOrder = make([]uint8, total*cfg.Ways)
		for s := 0; s < total; s++ {
			for w := 0; w < cfg.Ways; w++ {
				l.lruOrder[s*cfg.Ways+w] = uint8(w)
			}
		}
	case cfg.Policy == BitPLRU && cfg.Ways <= 64:
		l.plruBits = make([]uint64, total)
	default:
		l.policies = make([]Policy, total)
		for i := range l.policies {
			p, err := NewPolicy(cfg.Policy, cfg.Ways, rng)
			if err != nil {
				return nil, err
			}
			l.policies[i] = p
		}
	}
	return l, nil
}

// Config returns the level's configuration.
func (l *Level) Config() LevelConfig { return l.cfg }

// Stats returns a snapshot of the level's counters.
func (l *Level) Stats() LevelStats { return l.stats }

// Sets reports the number of sets per slice.
func (l *Level) Sets() int { return l.sets }

// SliceOf returns the slice an address maps to. The hash XOR-folds all
// address bits above the line offset, approximating the undocumented Intel
// slice hash: addresses equal in bits 6..16 can still land in different
// slices unless their tag-bit parities match, exactly the obstacle the
// eviction-set search in the attack has to solve.
func (l *Level) SliceOf(pa uint64) int {
	if l.sliceMask == 0 {
		return 0
	}
	return l.sliceOfTag(pa >> lineShift)
}

// sliceOfTag XOR-folds the tag's k-bit chunks. Kept out of SliceOf/setIndex
// so those stay small enough to inline at the call sites on the hot path.
func (l *Level) sliceOfTag(x uint64) int {
	k := l.sliceBits
	if k == 1 {
		// Two slices: the chunk fold degenerates to whole-word parity.
		return bits.OnesCount64(x) & 1
	}
	// XOR-fold the k-bit chunks pairwise: shifting by any multiple of k
	// aligns chunks onto chunks, so folding by (rounded-up) halves computes
	// the same XOR-of-all-chunks as the naive walk in O(log) steps.
	for width := uint(64); width > k; {
		half := (width/2 + k - 1) / k * k
		x = (x ^ (x >> half)) & (1<<half - 1)
		width = half
	}
	return int(x) & l.sliceMask
}

// SetOf returns the set index (within the slice) an address maps to.
func (l *Level) SetOf(pa uint64) int {
	return int((pa >> lineShift) & l.setMask)
}

// Congruent reports whether two addresses compete for the same slice+set.
func (l *Level) Congruent(a, b uint64) bool {
	return l.SetOf(a) == l.SetOf(b) && l.SliceOf(a) == l.SliceOf(b)
}

// setIndex returns the global set number of pa (slice*sets+set).
func (l *Level) setIndex(pa uint64) int {
	t := pa >> lineShift
	if l.sliceMask == 0 {
		return int(t & l.setMask)
	}
	return l.sliceOfTag(t)*l.sets + int(t&l.setMask)
}

func tagOf(pa uint64) uint64 { return pa >> lineShift }

// lruFind locates way's recency position in a packed order word: XOR with
// the byte-broadcast of way turns the match into a zero byte, and the
// classic zero-byte-locate trick finds its position. False positives only
// occur above the lowest zero byte, so taking the trailing one is exact.
func lruFind(w uint64, way int) uint {
	x := w ^ uint64(way)*0x0101010101010101
	return uint(bits.TrailingZeros64((x-0x0101010101010101)&^x&0x8080808080808080)) >> 3
}

// touch records a reference to (set, way) in the replacement state and
// refreshes the MRU line cache.
func (l *Level) touch(set, way int) {
	switch {
	case l.lruWord != nil:
		w := l.lruWord[set]
		top := uint(l.ways-1) * 8
		if byte(w) == byte(way) {
			// LRU straight to MRU — the fill-after-eviction case — is a
			// plain byte rotation.
			l.lruWord[set] = w>>8&(1<<top-1) | uint64(way)<<top
		} else if p := lruFind(w, way); 8*p != top {
			low := w & (1<<(8*p) - 1)
			mid := w >> (8 * (p + 1)) << (8 * p) & (1<<top - 1)
			l.lruWord[set] = low | mid | uint64(way)<<top
		}
	case l.lruOrder != nil:
		ord := l.lruOrder[set*l.ways : set*l.ways+l.ways]
		w := uint8(way)
		for i, v := range ord {
			if v == w {
				copy(ord[i:], ord[i+1:])
				ord[len(ord)-1] = w
				break
			}
		}
	case l.plruBits != nil:
		full := ^uint64(0) >> (64 - uint(l.ways))
		b := l.plruBits[set] | 1<<uint(way)
		if b == full {
			// Last MRU bit was just set: clear all the others.
			b = 1 << uint(way)
		}
		l.plruBits[set] = b
	default:
		l.policies[set].Touch(way)
	}
	if l.mruSafe {
		idx := set*l.ways + way
		l.mruIdx = idx
		l.mruTag = l.flat[idx] >> lineTagShift
	}
}

// victim returns the way the replacement policy evicts next in set.
func (l *Level) victim(set int) int {
	switch {
	case l.lruWord != nil:
		return int(l.lruWord[set] & 0xff)
	case l.lruOrder != nil:
		return int(l.lruOrder[set*l.ways])
	case l.plruBits != nil:
		// Lowest index whose MRU bit is cleared. Only a 1-way set has all
		// its bits set after touch; its one way is the victim, as in
		// bitPLRUPolicy.Victim.
		if v := bits.TrailingZeros64(^l.plruBits[set]); v < l.ways {
			return v
		}
		return 0
	default:
		return l.policies[set].Victim()
	}
}

// invalidateWay clears the replacement state protecting (set, way), making
// it the preferred victim, and drops the MRU cache if it pointed there.
func (l *Level) invalidateWay(set, way int) {
	switch {
	case l.lruWord != nil:
		w := l.lruWord[set]
		top := uint(l.ways-1) * 8
		if byte(w>>top) == byte(way) {
			// MRU straight to LRU — flush right after the access — is a
			// plain byte rotation. (1<<(top+8) overshifts to 0 for 8 ways,
			// so the mask correctly becomes the full word.)
			l.lruWord[set] = w<<8&(uint64(1)<<(top+8)-1) | uint64(way)
		} else if p := lruFind(w, way); p != 0 {
			low := w & (1<<(8*p) - 1)
			high := w &^ (1<<(8*(p+1)) - 1)
			l.lruWord[set] = low<<8 | high | uint64(way)
		}
	case l.lruOrder != nil:
		ord := l.lruOrder[set*l.ways : set*l.ways+l.ways]
		w := uint8(way)
		for i, v := range ord {
			if v == w {
				copy(ord[1:i+1], ord[:i])
				ord[0] = w
				break
			}
		}
	case l.plruBits != nil:
		l.plruBits[set] &^= 1 << uint(way)
	default:
		l.policies[set].Invalidate(way)
	}
	if l.mruIdx == set*l.ways+way {
		l.mruIdx = -1
	}
}

// Lookup probes the level without modifying replacement state.
func (l *Level) Lookup(pa uint64) bool {
	want := tagOf(pa)<<lineTagShift | lineValid
	base := l.setIndex(pa) * l.ways
	set := l.flat[base : base+l.ways]
	for _, w := range set {
		if w&^lineDirty == want {
			return true
		}
	}
	return false
}

// Access probes the level, updating replacement state on a hit. It returns
// whether the access hit and, if so, records a write by dirtying the line.
func (l *Level) Access(pa uint64, write bool) bool {
	hit, _, _ := l.probe(pa, write)
	return hit
}

// probe is Access plus miss-side information: on a miss it also returns the
// global set index and the first invalid way (-1 when the set is full), so
// the fill that follows the miss can skip both scans. The hints are only
// valid until the set is mutated; the hierarchy discards them after an
// inclusive back-invalidation.
func (l *Level) probe(pa uint64, write bool) (hit bool, setIdx, freeWay int) {
	t := tagOf(pa)
	want := t<<lineTagShift | lineValid
	// MRU fast path: a repeat access to the last-touched line. Touching the
	// most-recently-touched way again is a no-op for every maintained
	// policy, so only the hit counter (and the dirty bit) need updating.
	if l.mruTag == t && l.mruIdx >= 0 {
		if w := l.flat[l.mruIdx]; w&^lineDirty == want {
			l.stats.Hits++
			if write {
				l.flat[l.mruIdx] = w | lineDirty
			}
			return true, 0, 0
		}
	}
	setIdx = int(t & l.setMask)
	if l.sliceMask != 0 {
		setIdx += l.sliceOfTag(t) * l.sets
	}
	base := setIdx * l.ways
	set := l.flat[base : base+l.ways]
	for i, w := range set {
		if w&^lineDirty == want {
			l.stats.Hits++
			l.touch(setIdx, i)
			if write {
				set[i] = w | lineDirty
			}
			return true, 0, 0
		}
	}
	l.stats.Misses++
	freeWay = -1
	if l.invMask != nil {
		if m := l.invMask[setIdx]; m != 0 {
			freeWay = bits.TrailingZeros64(m)
		}
		return false, setIdx, freeWay
	}
	for i, w := range set {
		if w&lineValid == 0 {
			freeWay = i
			break
		}
	}
	return false, setIdx, freeWay
}

// Evicted describes a line displaced by Fill.
type Evicted struct {
	PA    uint64
	Dirty bool
}

// Fill inserts the line for pa, evicting if necessary. It returns the
// displaced line, if any. The new line is marked dirty when write is set.
func (l *Level) Fill(pa uint64, write bool) (Evicted, bool) {
	setIdx := l.setIndex(pa)
	// Prefer an invalid way.
	way := -1
	if l.invMask != nil {
		if m := l.invMask[setIdx]; m != 0 {
			way = bits.TrailingZeros64(m)
		}
	} else {
		base := setIdx * l.ways
		set := l.flat[base : base+l.ways]
		for i, w := range set {
			if w&lineValid == 0 {
				way = i
				break
			}
		}
	}
	return l.fillAt(setIdx, way, pa, write)
}

// fillAt is Fill with the set scans already done: setIdx is pa's global set
// and way the first invalid way (-1 when the set is full), as returned by
// probe on a miss with no intervening mutation of the set.
func (l *Level) fillAt(setIdx, way int, pa uint64, write bool) (Evicted, bool) {
	base := setIdx * l.ways
	set := l.flat[base : base+l.ways]
	var ev Evicted
	evicted := false
	if way < 0 {
		way = l.victim(setIdx)
		old := set[way]
		ev = Evicted{PA: old >> lineTagShift << lineShift, Dirty: old&lineDirty != 0}
		evicted = true
		l.stats.Evictions++
		if old&lineDirty != 0 {
			l.stats.Writebacks++
		}
	}
	w := tagOf(pa)<<lineTagShift | lineValid
	if write {
		w |= lineDirty
	}
	set[way] = w
	if l.invMask != nil {
		l.invMask[setIdx] &^= 1 << uint(way)
	}
	l.touch(setIdx, way)
	return ev, evicted
}

// Invalidate removes the line for pa if present, returning whether it was
// present and whether it was dirty.
func (l *Level) Invalidate(pa uint64) (present, dirty bool) {
	t := tagOf(pa)
	setIdx := int(t & l.setMask)
	if l.sliceMask != 0 {
		setIdx += l.sliceOfTag(t) * l.sets
	}
	base := setIdx * l.ways
	want := t<<lineTagShift | lineValid
	// Flushing the line touched a moment ago — CLFLUSH right after the
	// access, the hammer idiom — finds it via the MRU cache, skipping the
	// set scan. invalidateWay drops the MRU entry itself.
	if l.mruTag == t && l.mruIdx >= base {
		if w := l.flat[l.mruIdx]; w&^lineDirty == want {
			way := l.mruIdx - base
			if way < l.ways {
				dirty = w&lineDirty != 0
				l.flat[l.mruIdx] = 0
				if l.invMask != nil {
					l.invMask[setIdx] |= 1 << uint(way)
				}
				l.invalidateWay(setIdx, way)
				l.stats.Flushes++
				return true, dirty
			}
		}
	}
	set := l.flat[base : base+l.ways]
	for i, w := range set {
		if w&^lineDirty == want {
			dirty = w&lineDirty != 0
			set[i] = 0
			if l.invMask != nil {
				l.invMask[setIdx] |= 1 << uint(i)
			}
			l.invalidateWay(setIdx, i)
			l.stats.Flushes++
			return true, dirty
		}
	}
	return false, false
}

// MarkDirty flags the line for pa as dirty if present (used for writebacks
// arriving from an inner level of an inclusive hierarchy) and reports
// whether it was.
func (l *Level) MarkDirty(pa uint64) bool {
	base := l.setIndex(pa) * l.ways
	set := l.flat[base : base+l.ways]
	want := tagOf(pa)<<lineTagShift | lineValid
	for i, w := range set {
		if w&^lineDirty == want {
			set[i] = w | lineDirty
			return true
		}
	}
	return false
}

// ResidentWays returns how many valid lines the set containing pa holds.
func (l *Level) ResidentWays(pa uint64) int {
	base := l.setIndex(pa) * l.ways
	set := l.flat[base : base+l.ways]
	n := 0
	for _, w := range set {
		if w&lineValid != 0 {
			n++
		}
	}
	return n
}
