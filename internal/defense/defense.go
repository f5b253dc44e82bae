// Package defense implements the hardware rowhammer mitigations the paper
// compares ANVIL against (§1.2, §5.2):
//
//   - refresh-rate scaling (the deployed BIOS mitigation; configured on the
//     DRAM module via Timing.RefreshScaled — see DoubleRefresh),
//   - PARA, probabilistic adjacent row activation (Kim et al. [24]),
//   - TRR, targeted row refresh with windowed activation counting (the
//     LPDDR4/DDR4 mechanism [19, 21]),
//   - CRA, ideal per-row activation counters (Kim/Nair/Qureshi [23]),
//   - ARMOR, a controller-side hot-row buffer that absorbs repeated
//     activations [25].
//
// All of them attach to the DRAM module's activation stream, exactly where
// the real mechanisms live (the memory controller or the module itself).
// Unlike ANVIL they need new hardware; they serve as the comparison points
// for the extension benchmarks.
package defense

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/sim"
)

// Defense is a hardware mitigation attached to a DRAM module.
type Defense interface {
	// Name identifies the mechanism.
	Name() string
	// Attach hooks the defense into the module's command stream.
	Attach(m *dram.Module)
	// Refreshes reports how many victim-row refreshes the defense issued.
	Refreshes() uint64
}

// DoubleRefresh documents the refresh-rate mitigation: it has no runtime
// component — build the DRAM module with Timing.RefreshScaled(2) instead.
// The type exists so comparison tables can carry a uniform Defense value.
type DoubleRefresh struct{}

// Name implements Defense.
func (DoubleRefresh) Name() string { return "2x-refresh" }

// Attach implements Defense; scaling is a module-construction property, so
// this is a no-op.
func (DoubleRefresh) Attach(*dram.Module) {}

// Refreshes implements Defense.
func (DoubleRefresh) Refreshes() uint64 { return 0 }

// PARA is probabilistic adjacent row activation: on every activation, each
// neighbouring row is refreshed with a small probability p. Repeatedly
// hammering a row triggers a neighbour refresh with overwhelming cumulative
// probability long before the flip threshold.
type PARA struct {
	p         float64
	rng       *sim.Rand
	mod       *dram.Module
	refreshes uint64
}

// NewPARA builds the mechanism. The canonical probability is 0.001 (the
// PARA paper uses 0.001-0.01).
func NewPARA(p float64, seed uint64) (*PARA, error) {
	if p <= 0 || p >= 1 {
		return nil, fmt.Errorf("defense: PARA probability must be in (0,1), got %g", p)
	}
	return &PARA{p: p, rng: sim.NewRand(seed)}, nil
}

// Name implements Defense.
func (d *PARA) Name() string { return "para" }

// Refreshes implements Defense.
func (d *PARA) Refreshes() uint64 { return d.refreshes }

// Attach implements Defense.
func (d *PARA) Attach(m *dram.Module) {
	d.mod = m
	rows := m.Config().Geometry.RowsPerBank
	m.OnActivate(func(c dram.Coord, now sim.Cycles) {
		for _, r := range []int{c.Row - 1, c.Row + 1} {
			if r < 0 || r >= rows {
				continue
			}
			if d.rng.Bool(d.p) {
				d.refreshes++
				m.RefreshRow(c.Bank, r, now)
			}
		}
	}, nil)
}

// TRR is targeted row refresh: activations per row are counted within a
// rolling time window; crossing the maximum activation count (MAC) triggers
// a refresh of both neighbours and resets the row's count.
type TRR struct {
	mac       uint64
	window    sim.Cycles
	mod       *dram.Module
	counts    map[uint64]uint64
	winStart  sim.Cycles
	refreshes uint64
}

// NewTRR builds the mechanism. mac is the per-window activation budget;
// window is the counting horizon (typically a fraction of the refresh
// period).
func NewTRR(mac uint64, window sim.Cycles) (*TRR, error) {
	if mac == 0 || window == 0 {
		return nil, fmt.Errorf("defense: TRR needs positive MAC and window")
	}
	return &TRR{mac: mac, window: window, counts: make(map[uint64]uint64)}, nil
}

// Name implements Defense.
func (d *TRR) Name() string { return "trr" }

// Refreshes implements Defense.
func (d *TRR) Refreshes() uint64 { return d.refreshes }

func key(bank, row int) uint64 { return uint64(bank)<<32 | uint64(uint32(row)) }

// Attach implements Defense.
func (d *TRR) Attach(m *dram.Module) {
	d.mod = m
	rows := m.Config().Geometry.RowsPerBank
	m.OnActivate(func(c dram.Coord, now sim.Cycles) {
		if now-d.winStart >= d.window {
			d.counts = make(map[uint64]uint64)
			d.winStart = now - now%d.window
		}
		k := key(c.Bank, c.Row)
		d.counts[k]++
		if d.counts[k] < d.mac {
			return
		}
		d.counts[k] = 0
		for _, r := range []int{c.Row - 1, c.Row + 1} {
			if r >= 0 && r < rows {
				d.refreshes++
				m.RefreshRow(c.Bank, r, now)
			}
		}
	}, nil)
}

// CRA models ideal per-row activation counters (the "activation counter
// for each row" design the literature considers too expensive [23, 24]):
// a precise count of activations since the victim's last refresh, with
// deterministic neighbour refresh at the threshold. It is the oracle
// defense: zero false negatives, minimal refreshes.
type CRA struct {
	threshold uint64
	counts    map[uint64]uint64
	refreshes uint64
}

// NewCRA builds the mechanism with the given activation threshold (set
// safely below the weakest cell's disturbance limit).
func NewCRA(threshold uint64) (*CRA, error) {
	if threshold == 0 {
		return nil, fmt.Errorf("defense: CRA needs a positive threshold")
	}
	return &CRA{threshold: threshold, counts: make(map[uint64]uint64)}, nil
}

// Name implements Defense.
func (d *CRA) Name() string { return "cra" }

// Refreshes implements Defense.
func (d *CRA) Refreshes() uint64 { return d.refreshes }

// Attach implements Defense.
func (d *CRA) Attach(m *dram.Module) {
	rows := m.Config().Geometry.RowsPerBank
	m.OnActivate(func(c dram.Coord, now sim.Cycles) {
		k := key(c.Bank, c.Row)
		d.counts[k]++
		if d.counts[k] < d.threshold {
			return
		}
		d.counts[k] = 0
		for _, r := range []int{c.Row - 1, c.Row + 1} {
			if r >= 0 && r < rows {
				d.refreshes++
				m.RefreshRow(c.Bank, r, now)
				// The refresh restores the neighbour; its own counter can
				// also restart.
				d.counts[key(c.Bank, r)] = 0
			}
		}
	}, nil)
}

// ARMOR is a controller-side hot-row cache: rows that activate repeatedly
// within a window are promoted into a small buffer, and accesses to
// buffered rows are served from the buffer — the DRAM row is never opened
// again, so hammering stops at the controller.
type ARMOR struct {
	promote  uint64 // activations within the window to promote a row
	capacity int
	window   sim.Cycles
	counts   map[uint64]uint64
	buffer   map[uint64]bool
	order    []uint64 // FIFO for eviction
	winStart sim.Cycles
	absorbed uint64
}

// NewARMOR builds the mechanism.
func NewARMOR(promote uint64, capacity int, window sim.Cycles) (*ARMOR, error) {
	if promote == 0 || capacity <= 0 || window == 0 {
		return nil, fmt.Errorf("defense: ARMOR needs positive promote/capacity/window")
	}
	return &ARMOR{
		promote:  promote,
		capacity: capacity,
		window:   window,
		counts:   make(map[uint64]uint64),
		buffer:   make(map[uint64]bool),
	}, nil
}

// Name implements Defense.
func (d *ARMOR) Name() string { return "armor" }

// Refreshes implements Defense: ARMOR absorbs activations rather than
// issuing refreshes; it reports 0.
func (d *ARMOR) Refreshes() uint64 { return 0 }

// Absorbed reports how many activations the buffer absorbed.
func (d *ARMOR) Absorbed() uint64 { return d.absorbed }

// Attach implements Defense.
func (d *ARMOR) Attach(m *dram.Module) {
	m.SetInterceptor(func(c dram.Coord, now sim.Cycles) bool {
		if now-d.winStart >= d.window {
			d.counts = make(map[uint64]uint64)
			d.winStart = now - now%d.window
			// Buffered rows are written back at window turnover.
			d.buffer = make(map[uint64]bool)
			d.order = nil
		}
		k := key(c.Bank, c.Row)
		if d.buffer[k] {
			d.absorbed++
			return true
		}
		d.counts[k]++
		if d.counts[k] >= d.promote {
			if len(d.order) >= d.capacity {
				oldest := d.order[0]
				d.order = d.order[1:]
				delete(d.buffer, oldest)
			}
			d.buffer[k] = true
			d.order = append(d.order, k)
			d.counts[k] = 0
		}
		return false
	})
}

var (
	_ Defense = DoubleRefresh{}
	_ Defense = (*PARA)(nil)
	_ Defense = (*TRR)(nil)
	_ Defense = (*CRA)(nil)
	_ Defense = (*ARMOR)(nil)
)
