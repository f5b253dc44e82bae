package defense

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/sim"
)

// PTRR models Intel's pseudo-targeted row refresh ("Intel has partially
// disclosed the existence of pTRR in Xeon-class Ivybridge architectures...
// but Intel has yet to release the details of this mechanism", §1.2). With
// no public specification, we model the obvious low-cost design the name
// implies: the controller probabilistically samples activate commands into
// a small tracker table; rows whose tracked count crosses a budget get
// their neighbours refreshed. Sampling keeps the hardware tiny (a handful
// of counters instead of one per row); the cost is probabilistic coverage,
// which is why the paper treats pTRR as an unknown quantity rather than a
// guarantee.
type PTRR struct {
	sampleP   float64
	tableSize int
	mac       uint64 // tracked activations before refreshing neighbours

	rng       *sim.Rand
	table     map[uint64]uint64
	order     []uint64 // FIFO eviction of tracker entries
	refreshes uint64
}

// NewPTRR builds the mechanism: each activation is sampled into the tracker
// with probability sampleP; a tracked row reaching mac sampled activations
// (≈ mac/sampleP real ones) triggers a neighbour refresh.
func NewPTRR(sampleP float64, tableSize int, mac uint64, seed uint64) (*PTRR, error) {
	if sampleP <= 0 || sampleP >= 1 {
		return nil, fmt.Errorf("defense: pTRR sample probability must be in (0,1), got %g", sampleP)
	}
	if tableSize <= 0 || mac == 0 {
		return nil, fmt.Errorf("defense: pTRR needs positive table size and MAC")
	}
	return &PTRR{
		sampleP:   sampleP,
		tableSize: tableSize,
		mac:       mac,
		rng:       sim.NewRand(seed),
		table:     make(map[uint64]uint64),
	}, nil
}

// Name implements Defense.
func (d *PTRR) Name() string { return "ptrr" }

// Refreshes implements Defense.
func (d *PTRR) Refreshes() uint64 { return d.refreshes }

// Tracked reports the current tracker occupancy.
func (d *PTRR) Tracked() int { return len(d.table) }

// Attach implements Defense.
func (d *PTRR) Attach(m *dram.Module) {
	rows := m.Config().Geometry.RowsPerBank
	m.OnActivate(func(c dram.Coord, now sim.Cycles) {
		if !d.rng.Bool(d.sampleP) {
			return
		}
		k := key(c.Bank, c.Row)
		if _, ok := d.table[k]; !ok {
			if len(d.order) >= d.tableSize {
				oldest := d.order[0]
				d.order = d.order[1:]
				delete(d.table, oldest)
			}
			d.order = append(d.order, k)
		}
		d.table[k]++
		if d.table[k] < d.mac {
			return
		}
		d.table[k] = 0
		for _, r := range []int{c.Row - 1, c.Row + 1} {
			if r >= 0 && r < rows {
				d.refreshes++
				m.RefreshRow(c.Bank, r, now)
			}
		}
	}, nil)
}

var _ Defense = (*PTRR)(nil)
