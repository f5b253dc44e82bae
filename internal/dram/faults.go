package dram

import (
	"fmt"

	"repro/internal/sim"
)

// FaultConfig injects refresh and cell-reliability degradations into a
// Module. The zero value injects nothing. Decisions are derived from the
// *sim.Rand handed to InjectFaults (plus a stateless hash for the refresh
// schedule), so a given (config, seed, command stream) degrades identically.
type FaultConfig struct {
	// RefreshSkipRate is the probability that one scheduled REF slot is
	// postponed to the next sweep: the affected rows keep their accumulated
	// disturbance for a whole extra tREFW (controllers legally postpone up
	// to 8 REF commands under load; a buggy one skips them outright).
	RefreshSkipRate float64
	// ECCCorrectableRate is the per-activation probability of a transient
	// single-bit error in the activated row (a marginal cell upset that
	// SECDED scrubbing can repair).
	ECCCorrectableRate float64
	// ECCUncorrectableRate is the per-activation probability of a transient
	// double-bit error within one 64-bit word — the multi-flip-per-word
	// failure mode that defeats SECDED (§1.2).
	ECCUncorrectableRate float64
}

// Validate checks the rates.
func (c FaultConfig) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"RefreshSkipRate", c.RefreshSkipRate},
		{"ECCCorrectableRate", c.ECCCorrectableRate},
		{"ECCUncorrectableRate", c.ECCUncorrectableRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("dram: fault %s must be in [0,1], got %g", r.name, r.v)
		}
	}
	return nil
}

// FaultStats counts the degradations actually injected.
type FaultStats struct {
	// SkippedRefreshes is the number of distinct REF slots the module has
	// (lazily) evaluated as skipped.
	SkippedRefreshes uint64
	// TransientSingle / TransientDouble count injected transient error
	// events (a double event contributes two bit flips in one word).
	TransientSingle uint64
	TransientDouble uint64
}

// maxSkipWalk bounds how many consecutive sweeps a refresh-skip walk-back
// considers; beyond it the row is treated as refreshed (even a broken
// controller eventually catches up).
const maxSkipWalk = 8

type moduleFault struct {
	cfg     FaultConfig
	rng     *sim.Rand
	skipKey uint64 // stateless salt for the per-REF-slot skip decision
	skipped map[uint64]struct{}
	stats   FaultStats
}

// skipsSlot decides, statelessly, whether REF slot k is skipped. The same k
// always decides the same way, which keeps the lazily evaluated refresh
// schedule self-consistent across queries at different times.
func (f *moduleFault) skipsSlot(k uint64) bool {
	h := rowHash(f.skipKey, int(k>>32), int(uint32(k)))
	return float64(h>>11)/(1<<53) < f.cfg.RefreshSkipRate
}

// note counts skipped REF slot k the first time it is evaluated. The noted
// slots form a set, so the order of the notes does not matter.
func (f *moduleFault) note(k uint64) {
	if _, seen := f.skipped[k]; !seen {
		f.skipped[k] = struct{}{}
		f.stats.SkippedRefreshes++
	}
}

// transients reports whether f injects transient ECC errors.
func (f *moduleFault) transients() bool {
	return f != nil && (f.cfg.ECCCorrectableRate > 0 || f.cfg.ECCUncorrectableRate > 0)
}

// InjectFaults installs a degradation model on the module. Call at most
// once, before the run; a zero cfg changes nothing. rng must be dedicated to
// the module (see sim.Rand.Split).
func (m *Module) InjectFaults(cfg FaultConfig, rng *sim.Rand) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.fault = &moduleFault{
		cfg:     cfg,
		rng:     rng,
		skipKey: rng.Uint64(),
		skipped: make(map[uint64]struct{}),
	}
	return nil
}

// FaultStats reports the degradations injected so far (zero value without
// InjectFaults).
func (m *Module) FaultStats() FaultStats {
	if m.fault == nil {
		return FaultStats{}
	}
	return m.fault.stats
}

// TransientFlips returns the transient (fault-injected) bit flips, in
// occurrence order. They are deliberately kept out of Flips/FlipCount:
// hammer-induced flips are the experiments' headline observable, while
// transient errors exist to exercise the ECC scrubber.
func (m *Module) TransientFlips() []BitFlip {
	return append([]BitFlip(nil), m.transient...)
}

// injectTransient draws the per-activation transient-error events and
// appends their flips to the transient list. It reads nothing but the
// fault's own RNG, and only a scrub or TransientFlips reads the list, so
// the steady repeat (ref.go) makes a stretch's draws after its disturbance,
// in activation order.
func (m *Module) injectTransient(c Coord, now sim.Cycles) {
	f := m.fault
	rowBits := m.cfg.Geometry.RowBytes * 8
	if f.cfg.ECCCorrectableRate > 0 && f.rng.Bool(f.cfg.ECCCorrectableRate) {
		m.transient = append(m.transient, BitFlip{
			Bank: c.Bank, Row: c.Row, Bit: f.rng.Intn(rowBits), Time: now,
		})
		f.stats.TransientSingle++
	}
	if f.cfg.ECCUncorrectableRate > 0 && f.rng.Bool(f.cfg.ECCUncorrectableRate) {
		word := f.rng.Intn(rowBits / 64)
		b1 := f.rng.Intn(64)
		b2 := (b1 + 1 + f.rng.Intn(63)) % 64
		m.transient = append(m.transient,
			BitFlip{Bank: c.Bank, Row: c.Row, Bit: word*64 + b1, Time: now},
			BitFlip{Bank: c.Bank, Row: c.Row, Bit: word*64 + b2, Time: now},
		)
		f.stats.TransientDouble++
	}
}
