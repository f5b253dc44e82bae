package defense

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/sim"
)

// ECC models SECDED error-correcting memory with periodic scrubbing — the
// mitigation some manufacturers floated ("increasing ECC scrub rates could
// be a rowhammer protection mechanism", §1.2). The scrubber walks memory
// every Interval; a word with a single flipped bit is corrected, but a word
// accumulating two or more flips between scrub passes is *uncorrectable*:
// SECDED detects it and the machine takes a fatal machine-check. The paper
// dismisses this defense because rowhammering produces "multiple bit-flips
// per word", and even corrected flips turn into a denial of service through
// machine-check exception storms.
type ECC struct {
	interval  sim.Cycles
	wordBits  int
	mod       *dram.Module
	processed int // hammer flips already classified
	transient int // fault-injected transient flips already classified
	lastScrub sim.Cycles

	corrected     uint64
	uncorrectable uint64
}

// NewECC builds the scrubber. interval is the scrub period; wordBits is the
// ECC word size (64 for standard SECDED over 64-bit words).
func NewECC(interval sim.Cycles, wordBits int) (*ECC, error) {
	if interval == 0 {
		return nil, fmt.Errorf("defense: ECC needs a positive scrub interval")
	}
	if wordBits <= 0 {
		return nil, fmt.Errorf("defense: ECC needs a positive word size")
	}
	return &ECC{interval: interval, wordBits: wordBits}, nil
}

// Name implements Defense.
func (d *ECC) Name() string { return "ecc-scrub" }

// Refreshes implements Defense: ECC never refreshes rows; it repairs (or
// fails to repair) data after the fact.
func (d *ECC) Refreshes() uint64 { return 0 }

// Corrected reports single-bit flips repaired by scrub passes.
func (d *ECC) Corrected() uint64 { return d.corrected }

// Uncorrectable reports multi-bit-per-word flips: fatal machine checks.
func (d *ECC) Uncorrectable() uint64 { return d.uncorrectable }

// Attach implements Defense. The scrubber piggybacks on the activation
// stream for its notion of time (it needs no command of its own). Its hook
// declares [lastScrub, lastScrub+interval) idle: it scrubs at the first
// activation outside that window, which includes one before lastScrub
// (now-lastScrub wraps), and a scrub moves the window.
func (d *ECC) Attach(m *dram.Module) {
	d.mod = m
	m.OnActivate(func(c dram.Coord, now sim.Cycles) {
		if now-d.lastScrub >= d.interval {
			d.Scrub(now)
		}
	}, func() (from, to sim.Cycles) {
		return d.lastScrub, d.lastScrub + d.interval
	})
}

// Scrub classifies all bit flips that occurred since the previous pass —
// hammer-induced flips and fault-injected transient errors alike, since the
// scrubber cannot tell them apart: words with exactly one flip are
// corrected; words with more are uncorrectable. Explicit calls let harnesses
// force a final pass.
func (d *ECC) Scrub(now sim.Cycles) {
	if d.mod == nil {
		return
	}
	d.lastScrub = now - now%d.interval
	flips := d.mod.Flips()
	transient := d.mod.TransientFlips()
	if d.processed >= len(flips) && d.transient >= len(transient) {
		return
	}
	type word struct {
		bank, row, w int
	}
	counts := make(map[word]int)
	for _, f := range flips[d.processed:] {
		counts[word{f.Bank, f.Row, f.Bit / d.wordBits}]++
	}
	for _, f := range transient[d.transient:] {
		counts[word{f.Bank, f.Row, f.Bit / d.wordBits}]++
	}
	d.processed = len(flips)
	d.transient = len(transient)
	for _, n := range counts {
		if n == 1 {
			d.corrected++
		} else {
			d.uncorrectable++
		}
	}
}

var _ Defense = (*ECC)(nil)
