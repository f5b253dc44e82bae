// Package attack implements the paper's rowhammer attacks as programs for
// the simulated machine:
//
//   - single- and double-sided CLFLUSH hammering (§2.1, Table 1),
//   - the first CLFLUSH-free double-sided attack (§2.2, Figure 1b), built
//     from pagemap-derived eviction sets and a replacement-policy-aware
//     access pattern,
//   - the replacement-policy inference harness the authors used to identify
//     Sandy Bridge's Bit-PLRU policy (§2.2).
//
// The attacks only use the interfaces a real attacker has: mapped memory,
// /proc/pagemap, knowledge of the (reverse-engineered) cache and DRAM
// address maps, loads/stores, and optionally CLFLUSH.
package attack

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/machine"
)

// CacheSpec is the attacker's model of the last-level cache: enough to
// compute set/slice congruence. It mirrors what the paper's authors derived
// from the literature and their own probing ("bits 6 to 16 of the physical
// addresses are used to map to last-level cache sets", plus the slice hash).
type CacheSpec struct {
	level *cache.Level
	ways  int
}

// NewCacheSpec builds the attacker's cache model from the (known) LLC
// configuration.
func NewCacheSpec(cfg cache.LevelConfig) (*CacheSpec, error) {
	l, err := cache.NewLevel(cfg, nil)
	if err != nil {
		return nil, err
	}
	return &CacheSpec{level: l, ways: cfg.Ways}, nil
}

// Ways reports the LLC associativity.
func (s *CacheSpec) Ways() int { return s.ways }

// Congruent reports whether two physical addresses compete for the same LLC
// set and slice.
func (s *CacheSpec) Congruent(a, b uint64) bool { return s.level.Congruent(a, b) }

// EvictionSet is the aggressor address plus the congruent conflict
// addresses used to evict it without CLFLUSH.
type EvictionSet struct {
	Aggressor uint64   // virtual address of the aggressor
	Conflicts []uint64 // virtual addresses congruent with the aggressor
}

// translator resolves the attacker's virtual addresses to physical ones.
type translator func(va uint64) (uint64, error)

// buildEvictionSet scans the buffer [bufVA, bufVA+bufLen) for addresses
// congruent with aggVA, excluding any whose DRAM row lies within
// `exclusion` rows of a row in avoidRows (so eviction traffic does not
// accidentally refresh — or hammer — the victim). It returns `count`
// conflict addresses.
func buildEvictionSet(spec *CacheSpec, mapper dram.Mapper, xlate translator,
	aggVA, bufVA, bufLen uint64, count int, avoidRows []dram.Coord, exclusion int) (EvictionSet, error) {

	aggPA, err := xlate(aggVA)
	if err != nil {
		return EvictionSet{}, fmt.Errorf("attack: translating aggressor: %w", err)
	}
	es := EvictionSet{Aggressor: aggVA}
	// Candidates repeat with the set-index period; stepping by lines would
	// be wasteful. The set index covers bits 6..16, so congruent candidates
	// are 2^17 apart at most — but slice hashing means we must test each.
	const step = uint64(cache.LineSize)
	for va := bufVA; va+step <= bufVA+bufLen && len(es.Conflicts) < count; va += step {
		if va == aggVA {
			continue
		}
		pa, err := xlate(va)
		if err != nil {
			return EvictionSet{}, fmt.Errorf("attack: pagemap scan: %w", err)
		}
		if pa == aggPA || !spec.Congruent(pa, aggPA) {
			continue
		}
		c := mapper.Map(pa)
		if tooClose(c, avoidRows, exclusion) {
			continue
		}
		es.Conflicts = append(es.Conflicts, va)
	}
	if len(es.Conflicts) < count {
		return EvictionSet{}, fmt.Errorf("attack: found only %d/%d conflict addresses for %#x; buffer too small",
			len(es.Conflicts), count, aggVA)
	}
	return es, nil
}

func tooClose(c dram.Coord, avoid []dram.Coord, exclusion int) bool {
	for _, a := range avoid {
		if c.Bank != a.Bank {
			continue
		}
		d := c.Row - a.Row
		if d < 0 {
			d = -d
		}
		if d <= exclusion {
			return true
		}
	}
	return false
}

// mapBuffer maps the attack buffer and returns a translator using pagemap,
// mirroring the real implementation ("uses the Linux /proc/pagemap utility
// to convert virtual addresses to physical addresses"). A restricted
// pagemap makes eviction-set construction fail — the mitigation the kernel
// shipped, which the paper notes still leaves other attack avenues.
func mapBuffer(p *machine.Proc, baseVA, bytes uint64, contiguous bool) (translator, error) {
	// Idempotent: re-initialising an attack against a buffer the process
	// already mapped (retargeting, templating sweeps) reuses the mapping.
	if !p.AS.Mapped(baseVA) {
		var err error
		if contiguous {
			err = p.AS.MapContiguous(baseVA, bytes)
		} else {
			err = p.AS.Map(baseVA, bytes)
		}
		if err != nil {
			return nil, err
		}
	}
	pm, as := p.Pagemap(), p.AS
	return func(va uint64) (uint64, error) { return pm.Query(as, va) }, nil
}
