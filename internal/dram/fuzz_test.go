package dram

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// FuzzMapperRoundTrip: both address maps invert exactly for any in-range
// physical address.
func FuzzMapperRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(0x1234_5678))
	f.Add(uint64(1) << 31)
	g := DefaultGeometry()
	lin := mustMapper(f, g, true)
	xm, err := NewXORMapper(g, SandyBridgeMasks(g))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, pa uint64) {
		pa %= g.Size()
		if got := lin.Unmap(lin.Map(pa)); got != pa {
			t.Fatalf("linear: %#x -> %v -> %#x", pa, lin.Map(pa), got)
		}
		if got := xm.Unmap(xm.Map(pa)); got != pa {
			t.Fatalf("xor: %#x -> %v -> %#x", pa, xm.Map(pa), got)
		}
	})
}

// refState is everything a read can change in a module: its counters, bank
// state, flips (the count, and those after the first from), refresh memos,
// and the victim records of the given rows of the given banks and of their
// neighbours (present reports each record's page).
type refState struct {
	stats   Stats
	banks   []bankState
	nflips  int
	flips   []BitFlip
	memos   []sim.Cycles
	victims []victim
	present []bool
}

func readRefState(m *Module, banks, rows []int, from int) refState {
	st := refState{
		stats:  m.stats,
		banks:  slices.Clone(m.banks),
		nflips: len(m.flips),
		flips:  m.flips[min(from, len(m.flips)):],
		memos:  []sim.Cycles{sim.Cycles(m.epochK), m.epochStart, m.epochEnd},
	}
	st.memos = append(append(st.memos, m.stallFreeFrom...), m.stallFreeTo...)
	for _, bank := range banks {
		for _, r := range rows {
			for row := r - 1; row <= r+1; row++ {
				var v victim
				p := m.disturbed[bank].peek(row)
				if p != nil {
					v = *p
				}
				st.victims = append(st.victims, v)
				st.present = append(st.present, p != nil)
			}
		}
	}
	return st
}

func (a refState) equal(b refState) bool {
	return a.stats == b.stats && a.nflips == b.nflips && slices.Equal(a.memos, b.memos) && slices.Equal(a.banks, b.banks) &&
		slices.Equal(a.flips, b.flips) && slices.Equal(a.victims, b.victims) && slices.Equal(a.present, b.present)
}

// FuzzRefMatchesAccess drives twin modules with the same accesses: random
// banks in both ranks, rows at both edges of a bank, times stepping across
// refresh slots, refresh-stall windows, epoch ends and the rows' refresh
// sweeps, and rows planted weak enough to flip. The reference twin serves
// every access through AccessCoord. The other serves runs of reads through
// refs, resolved once per line and kept: GuardReads must change nothing,
// and when it accepts a run, ApplyReads must leave the module (refState:
// stats, banks, victim records, flips, memos) exactly as the reference's
// AccessCoord calls do, with the latencies GuardReads decided. A refused
// run goes through AccessCoord on both.
func FuzzRefMatchesAccess(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRand(seed)
		b := make([]byte, 2048)
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		f.Add(b)
	}
	cfg := testConfig()
	// Sixteen REF commands a window, each of the default tREFI: every row
	// is swept every sixteen epochs, so sweeps land among the runs.
	cfg.Timing.RefreshPeriod = cfg.Timing.TREFI() * 16
	cfg.Timing.RefreshCommands = 16
	banks := []int{0, 1, 8, 9}
	rows := []int{0, 1, 2, 3, 4, 5, 6, 7, 4094, 4095}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var ms [2]*Module // the reference, and the twin reading through refs
		for i := range ms {
			ms[i] = mustModule(t, cfg)
			for _, bank := range banks {
				for _, row := range rows {
					if err := ms[i].PlantWeakRow(bank, row, float64(2+(bank+row)%5*3)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		coord := func() Coord {
			b := next()
			return Coord{Bank: banks[b%len(banks)], Row: rows[b/len(banks)%len(rows)], Col: next() % 8 * 64}
		}
		refs := map[Coord]Ref{}
		half := ms[0].trefi / 2 // every slot of two staggered ranks
		var now sim.Cycles
		accepted, checked := 0, 0 // checked: flips already compared
		for step := 0; len(data) > 0 && step < 512; step++ {
			switch d := next(); d % 4 {
			case 0: // just before the next slot or epoch end, or inside its stall
				now = (now/half+1)*half - sim.Cycles(next()*4) + sim.Cycles(d/4*8)
			case 1:
				now += sim.Cycles(next())
			case 2:
				now += sim.Cycles(next()) << 8
			}
			op := next()
			if op%3 == 0 {
				// Other traffic, possibly a write slightly in the past, as a
				// writeback would be.
				c, write, at := coord(), op&8 != 0, now-min(now, sim.Cycles(op>>4))
				if a, b := ms[0].AccessCoord(c, write, at), ms[1].AccessCoord(c, write, at); a != b {
					t.Fatalf("step %d: AccessCoord differs: %+v, %+v", step, a, b)
				}
			} else {
				run := make([]RefRead, 1+op%4)
				coords := make([]Coord, len(run))
				resolved := true
				for k := range run {
					coords[k] = coord()
					run[k].Gap = sim.Cycles(next())
					ref, ok := refs[coords[k]]
					if !ok {
						if ref, ok = ms[1].Ref(ms[1].mapper.Unmap(coords[k])); ok {
							refs[coords[k]] = ref
						}
					}
					run[k].Ref, resolved = ref, resolved && ok
				}
				var total sim.Cycles
				ok := false
				if resolved {
					total, ok = ms[1].GuardReads(run, now)
				}
				if !readRefState(ms[0], banks, rows, checked).equal(readRefState(ms[1], banks, rows, checked)) {
					t.Fatalf("step %d: resolving refs or guarding the run changed the module", step)
				}
				if ok {
					ms[1].ApplyReads(run)
					accepted++
				}
				var sum sim.Cycles
				for k, c := range coords {
					now += run[k].Gap
					res := ms[0].AccessCoord(c, false, now)
					if !ok {
						ms[1].AccessCoord(c, false, now)
					} else if res.Latency != run[k].Latency() {
						t.Fatalf("step %d: read %d of the run: AccessCoord latency %d, guard %d", step, k, res.Latency, run[k].Latency())
					}
					now += res.Latency
					sum += res.Latency
				}
				if ok && sum != total {
					t.Fatalf("step %d: the run's latency is %d, the guard's %d", step, sum, total)
				}
			}
			if a, b := readRefState(ms[0], banks, rows, checked), readRefState(ms[1], banks, rows, checked); !a.equal(b) {
				t.Fatalf("step %d: the modules differ\nreference:    %+v\nthrough refs: %+v", step, a, b)
			}
			checked = len(ms[0].flips)
		}
		t.Logf("%d runs accepted, %d flips", accepted, len(ms[0].flips))
	})
}
