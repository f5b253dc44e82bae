package dram

import "repro/internal/sim"

// Reads through pre-resolved references.
//
// A hammer loop reads the same few lines at the same offsets of every
// iteration, and once the cache hierarchy replays the loop's cache state
// the memory system knows each iteration's DRAM reads before it runs them
// (memsys's iteration skip). A Ref resolves such a line once: its
// coordinate and the victim records an activation of its row touches. A run
// of reads through refs then takes two steps:
//
//   - GuardReads, a pure read, decides for every read of the run, in order,
//     its time, class and latency, tracking each bank's open row and last
//     access across the run's own reads. It accepts the run only when every
//     read would take AccessCoord's plain path: no refresh stall (the read
//     lies inside its rank's memoised stall-free window), no refresh-epoch
//     recomputation (inside the memoised epoch), and nothing but the plain
//     activation (no command engine, bank contention, interceptor,
//     activation hook, far coupling or injected fault).
//   - ApplyReads makes the state changes AccessCoord would make for each
//     read, at the time GuardReads decided, through the activation and the
//     deposit-and-flip code AccessCoord itself runs (activateRows,
//     deposit). So every float addition, alternation bonus, lazy refresh
//     reset and flip happens in the same order, at the same simulated time.

// Ref is a pre-resolved reference to one DRAM line.
type Ref struct {
	c    Coord
	rank int
	self *victim // the row's own record
	// below and above are the records of rows c.Row-1 and c.Row+1, nil
	// outside the bank.
	below, above *victim
}

// Ref resolves the line at pa. It fails unless the row's record and its
// neighbours' inside the bank already exist: an activation of the row
// allocates the neighbours' pages, and in every geometry whose banks hold a
// multiple of 64 rows, one of them is the row's own. A read that missed the
// row buffer has activated its row; one that found it open, too, earlier.
// Pages are never freed, so the records stay valid for the module's
// lifetime.
func (m *Module) Ref(pa uint64) (Ref, bool) {
	c := m.coord(pa)
	bd := &m.disturbed[c.Bank]
	r := Ref{c: c, rank: m.cfg.Geometry.Rank(c.Bank), self: bd.peek(c.Row)}
	if c.Row > 0 {
		r.below = bd.peek(c.Row - 1)
	}
	if c.Row+1 < m.cfg.Geometry.RowsPerBank {
		r.above = bd.peek(c.Row + 1)
	}
	if r.self == nil || c.Row > 0 && r.below == nil || c.Row+1 < m.cfg.Geometry.RowsPerBank && r.above == nil {
		return Ref{}, false
	}
	return r, true
}

// RefRead is one read of a run through a Ref.
type RefRead struct {
	Ref Ref
	// Gap is the simulated time from the completion of the run's previous
	// read (the run's start, for the first) to this read.
	Gap sim.Cycles

	// Set by GuardReads: the read's time, latency and class.
	at   sim.Cycles
	lat  sim.Cycles
	kind uint8
}

// Read classes.
const (
	readHit      uint8 = iota // the row is open
	readClosed                // the bank is precharged, or a REF closed the row
	readConflict              // another row is open
)

// Latency is the read's latency, as the last accepting GuardReads decided.
func (rd *RefRead) Latency() sim.Cycles { return rd.lat }

// GuardReads decides, changing nothing in the module, whether ApplyReads can
// apply run from start, and returns the run's summed read latency. See the
// comment at the top of this file for what it accepts.
func (m *Module) GuardReads(run []RefRead, start sim.Cycles) (sim.Cycles, bool) {
	if m.engine != nil || m.cfg.Contention || m.interceptor != nil || len(m.hooks) > 0 ||
		m.fault != nil || m.cfg.Disturb.FarCouplingRatio > 0 {
		return 0, false
	}
	t, total := start, sim.Cycles(0)
	for i := range run {
		rd := &run[i]
		t += rd.Gap
		if t < m.stallFreeFrom[rd.Ref.rank] || t >= m.stallFreeTo[rd.Ref.rank] ||
			t < m.epochStart || t >= m.epochEnd {
			return 0, false
		}
		c := rd.Ref.c
		b := &m.banks[c.Bank]
		open, last := b.openRow, b.lastAccess
		for j := i - 1; j >= 0; j-- {
			if prev := &run[j]; prev.Ref.c.Bank == c.Bank {
				open, last = prev.Ref.c.Row, prev.at
				break
			}
		}
		if last < m.epochStart || last >= m.epochEnd {
			open = -1 // a REF since the bank's last access closed its row
		}
		switch {
		case open == c.Row:
			rd.kind, rd.lat = readHit, m.cfg.Timing.RowHit
		case open < 0:
			rd.kind, rd.lat = readClosed, m.cfg.Timing.RowClosed
		default:
			rd.kind, rd.lat = readConflict, m.cfg.Timing.RowConflict
		}
		rd.at = t
		t += rd.lat
		total += rd.lat
	}
	return total, true
}

// ApplyReads applies a run that GuardReads accepted, with no other call on
// the module in between.
func (m *Module) ApplyReads(run []RefRead) {
	for i := range run {
		rd := &run[i]
		r := &rd.Ref
		m.stats.Reads++
		m.banks[r.c.Bank].lastAccess = rd.at
		switch rd.kind {
		case readHit:
			m.stats.RowHits++
			continue
		case readClosed:
			m.stats.RowMisses++
		default:
			m.stats.RowConflicts++
		}
		m.activateRows(r.c, r.self, r.below, r.above, rd.at)
	}
}
