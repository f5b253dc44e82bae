package dram

import (
	"fmt"

	"repro/internal/sim"
)

// DisturbConfig parameterises the electrical disturbance (rowhammer) model.
//
// Every activation of a row deposits disturbance "units" into the charge
// accumulators of its physical neighbours. A victim row's accumulator is
// cleared whenever the row itself is activated (a read refreshes the row —
// the property ANVIL's selective refresh exploits) or when the periodic
// refresh sweep reaches it. If the accumulator reaches the row's weak-cell
// threshold before being cleared, a bit in the row flips.
//
// Double-sided hammering is modelled with an alternation bonus: an
// activation whose bank's previously activated row was the victim's *other*
// neighbour carries (1 + AlternationBonus) units. With the default bonus of
// 0.82 and weakest threshold of 400K units, first flips appear after ~400K
// single-sided accesses or ~220K double-sided accesses — Table 1's minimums.
type DisturbConfig struct {
	// AlternationBonus is the extra disturbance (fraction of a unit) carried
	// by an activation from the side opposite to the victim's previous
	// disturbance — the signature of double-sided hammering. Alternation of
	// sides is what matters; unrelated activations of other rows in the bank
	// in between (as the CLFLUSH-free attack's eviction accesses cause) do
	// not break the bonus, matching the physics of charge disturbance.
	AlternationBonus float64
	// MinFlipUnits is the flip threshold of the weakest cells in the module.
	MinFlipUnits float64
	// ThresholdSpread scales how much weaker-than-minimum rows spread out:
	// a vulnerable row's threshold is MinFlipUnits * (1 + ThresholdSpread*u)
	// for a per-row deterministic u in [0,1).
	ThresholdSpread float64
	// VulnerableFraction is the fraction of rows that have any finite flip
	// threshold at all; the rest never flip.
	VulnerableFraction float64
	// MaxWeakCellsPerRow caps how many independently-flipping weak cells a
	// vulnerable row can have (Kim et al. and the paper both observe
	// multiple flips per row — and even per 64-bit word, which is what
	// defeats SECDED ECC). Cells beyond the first are progressively
	// stronger. Zero or one gives single-cell rows.
	MaxWeakCellsPerRow int
	// ExtraCellSpread is the per-cell threshold increment for the second
	// and later weak cells: cell k flips at threshold * (1 + k*spread).
	ExtraCellSpread float64
	// Seed makes the weak-cell map deterministic.
	Seed uint64
}

// DefaultDisturbConfig models the paper's test module: weakest cells flip at
// 400K disturbance units (400K single-sided or 220K double-sided accesses).
func DefaultDisturbConfig() DisturbConfig {
	return DisturbConfig{
		AlternationBonus:   0.82,
		MinFlipUnits:       400_000,
		ThresholdSpread:    4.0,
		VulnerableFraction: 0.25,
		MaxWeakCellsPerRow: 1,
		ExtraCellSpread:    0.15,
		Seed:               0x0a17,
	}
}

// Scaled returns a copy with MinFlipUnits multiplied by f. Section 4.5 uses
// Scaled(0.5) to model future, denser DRAM that flips at 110K double-sided
// accesses (200K units).
func (c DisturbConfig) Scaled(f float64) DisturbConfig {
	c.MinFlipUnits *= f
	return c
}

// Validate checks the disturbance parameters.
func (c DisturbConfig) Validate() error {
	switch {
	case c.AlternationBonus < 0 || c.AlternationBonus > 1:
		return fmt.Errorf("dram: AlternationBonus must be in [0,1], got %g", c.AlternationBonus)
	case c.MinFlipUnits <= 0:
		return fmt.Errorf("dram: MinFlipUnits must be positive, got %g", c.MinFlipUnits)
	case c.ThresholdSpread < 0:
		return fmt.Errorf("dram: ThresholdSpread must be nonnegative, got %g", c.ThresholdSpread)
	case c.VulnerableFraction < 0 || c.VulnerableFraction > 1:
		return fmt.Errorf("dram: VulnerableFraction must be in [0,1], got %g", c.VulnerableFraction)
	case c.MaxWeakCellsPerRow < 0:
		return fmt.Errorf("dram: MaxWeakCellsPerRow must be nonnegative, got %d", c.MaxWeakCellsPerRow)
	case c.ExtraCellSpread < 0:
		return fmt.Errorf("dram: ExtraCellSpread must be nonnegative, got %g", c.ExtraCellSpread)
	}
	return nil
}

// BitFlip records one disturbance-induced bit flip.
type BitFlip struct {
	Bank int
	Row  int        // the victim row whose cell flipped
	Bit  int        // bit index within the row
	Time sim.Cycles // simulated time of the flip
}

func (f BitFlip) String() string {
	return fmt.Sprintf("flip bank %d row %d bit %d @%d", f.Bank, f.Row, f.Bit, uint64(f.Time))
}

// victim tracks the disturbance accumulator of one row. The cached flip
// threshold lives in the same struct so the activation path touches one
// cache line per victim, not two arrays; the layout packs to 32 bytes
// (two victims per line).
type victim struct {
	units     float64
	lastReset sim.Cycles // time the accumulator last started from zero
	// thr caches the row's weakest-cell flip threshold: 0 means not yet
	// computed, +Inf an invulnerable row (so the units-vs-threshold compare
	// needs no separate "vulnerable" flag).
	thr      float64
	flipped  int32 // weak cells already flipped in this accumulation epoch
	lastSide int8  // side (-1/+1) of the neighbour that last disturbed it
}

// rowHash derives the deterministic per-row randomness for weak-cell
// placement (a 64-bit mix of seed, bank and row).
func rowHash(seed uint64, bank, row int) uint64 {
	x := seed ^ uint64(bank)*0x9e3779b97f4a7c15 ^ uint64(row)*0xc2b2ae3d27d4eb4f
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// weakCell is one flippable cell in a row.
type weakCell struct {
	threshold float64
	bit       int // bit index within the row
}

// threshold returns the flip threshold of the weakest cell of (bank,row),
// and whether the row is vulnerable at all.
func (c DisturbConfig) threshold(bank, row int) (float64, bool) {
	h := rowHash(c.Seed, bank, row)
	// low 32 bits select vulnerability, high 32 bits the spread position.
	sel := float64(uint32(h)) / float64(1<<32)
	if sel >= c.VulnerableFraction {
		return 0, false
	}
	u := float64(h>>32) / float64(1<<32)
	// The explicit float64 conversions here and in cells round each product
	// on its own, which forbids a fused multiply-add (the Go spec), so every
	// architecture computes the same thresholds.
	return c.MinFlipUnits * (1 + float64(c.ThresholdSpread*u)), true
}

// cells returns the procedural weak cells of (bank,row), weakest first.
func (c DisturbConfig) cells(bank, row, rowBits int) []weakCell {
	base, ok := c.threshold(bank, row)
	if !ok {
		return nil
	}
	n := 1
	if c.MaxWeakCellsPerRow > 1 {
		n = 1 + int(rowHash(c.Seed^0xce115, bank, row)%uint64(c.MaxWeakCellsPerRow))
	}
	out := make([]weakCell, n)
	for k := range out {
		out[k] = weakCell{
			threshold: base * (1 + float64(float64(k)*c.ExtraCellSpread)),
			bit:       int(rowHash(c.Seed^0xb17f11b^uint64(k)*0x9e37, bank, row) % uint64(rowBits)),
		}
	}
	return out
}
