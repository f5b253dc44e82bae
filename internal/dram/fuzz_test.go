package dram

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
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

// refState is everything a read can change in a module: its counters and
// fault counters, bank state, flips and transient flips (the counts, and
// those after the first from), refresh memos, and the victim records of the
// given rows of the given banks and of the rows within two of them.
type refState struct {
	stats      Stats
	faults     FaultStats
	banks      []bankState
	nflips     int
	flips      []BitFlip
	ntransient int
	transient  []BitFlip
	epoch      [3]sim.Cycles   // epochK, epochStart, epochEnd
	stallFree  [][2]sim.Cycles // per rank: stallFreeFrom, stallFreeTo
	victims    []victimState
}

// victimState is the victim record of (bank, row); present reports its page.
type victimState struct {
	bank, row int
	present   bool
	rec       victim
}

func readRefState(m *Module, banks, rows []int, from, fromTransient int) refState {
	st := refState{
		stats:      m.stats,
		faults:     m.FaultStats(),
		banks:      slices.Clone(m.banks),
		nflips:     len(m.flips),
		flips:      m.flips[min(from, len(m.flips)):],
		ntransient: len(m.transient),
		transient:  m.transient[min(fromTransient, len(m.transient)):],
		epoch:      [3]sim.Cycles{sim.Cycles(m.epochK), m.epochStart, m.epochEnd},
	}
	for r := range m.stallFreeFrom {
		st.stallFree = append(st.stallFree, [2]sim.Cycles{m.stallFreeFrom[r], m.stallFreeTo[r]})
	}
	for _, bank := range banks {
		for _, r := range rows {
			for row := r - 2; row <= r+2; row++ {
				v := victimState{bank: bank, row: row}
				if p := m.disturbed[bank].peek(row); p != nil {
					v.present, v.rec = true, *p
				}
				st.victims = append(st.victims, v)
			}
		}
	}
	return st
}

// diff lists what differs between two states of one module configuration,
// one line each, a's value first: a counter by its field, a bank or a
// rank's memo by its index and a victim record by its bank and row. It is
// empty when the states agree.
func (a refState) diff(b refState) string {
	var d []string
	note := func(what string, x, y any) { d = append(d, fmt.Sprintf("%s: %+v, %+v", what, x, y)) }
	fields := func(what string, x, y any) {
		vx, vy := reflect.ValueOf(x), reflect.ValueOf(y)
		for i := range vx.NumField() {
			if fx, fy := vx.Field(i).Interface(), vy.Field(i).Interface(); fx != fy {
				note(what+"."+vx.Type().Field(i).Name, fx, fy)
			}
		}
	}
	fields("stats", a.stats, b.stats)
	fields("faults", a.faults, b.faults)
	for i := range a.banks {
		if a.banks[i] != b.banks[i] {
			note(fmt.Sprintf("bank %d", i), a.banks[i], b.banks[i])
		}
	}
	if a.nflips != b.nflips || !slices.Equal(a.flips, b.flips) {
		note("flips (count, then the unchecked)", fmt.Sprint(a.nflips, a.flips), fmt.Sprint(b.nflips, b.flips))
	}
	if a.ntransient != b.ntransient || !slices.Equal(a.transient, b.transient) {
		note("transient flips (count, then the unchecked)", fmt.Sprint(a.ntransient, a.transient), fmt.Sprint(b.ntransient, b.transient))
	}
	if a.epoch != b.epoch {
		note("epoch memo (epochK, epochStart, epochEnd)", a.epoch, b.epoch)
	}
	for r := range a.stallFree {
		if a.stallFree[r] != b.stallFree[r] {
			note(fmt.Sprintf("rank %d stall-free memo (from, to)", r), a.stallFree[r], b.stallFree[r])
		}
	}
	for i, x := range a.victims {
		if y := b.victims[i]; x != y {
			note(fmt.Sprintf("victim bank %d row %d (present, record)", x.bank, x.row),
				fmt.Sprintf("%v %+v", x.present, x.rec), fmt.Sprintf("%v %+v", y.present, y.rec))
		}
	}
	return strings.Join(d, "\n")
}

// hookSaw is what the scrubber-like hook of refModuleKinds saw when it
// acted: the time, and how many flips and transient flips the module held.
type hookSaw struct {
	now              sim.Cycles
	flips, transient int
}

// refModuleKinds are the modules FuzzRefMatchesAccess draws, each built
// identically for both twins: plain; with an activation hook that
// refreshes a neighbour at random, as PARA does; with an interceptor that
// absorbs some activations, as ARMOR does; with injected refresh skips and
// transient ECC errors; and with those faults and a hook that acts as an
// ECC scrubber does, appending what it saw to *saw.
var refModuleKinds = []func(t *testing.T, cfg Config, saw *[]hookSaw) *Module{
	func(t *testing.T, cfg Config, _ *[]hookSaw) *Module { return mustModule(t, cfg) },
	func(t *testing.T, cfg Config, _ *[]hookSaw) *Module {
		m := mustModule(t, cfg)
		rng := sim.NewRand(7)
		m.OnActivate(func(c Coord, now sim.Cycles) {
			if rng.Intn(4) == 0 {
				m.RefreshRow(c.Bank, c.Row+1-2*rng.Intn(2), now)
			}
		}, nil)
		return m
	},
	func(t *testing.T, cfg Config, _ *[]hookSaw) *Module {
		m := mustModule(t, cfg)
		n := 0
		m.SetInterceptor(func(c Coord, now sim.Cycles) bool {
			n++
			return (n+c.Row)%3 == 0
		})
		return m
	},
	func(t *testing.T, cfg Config, _ *[]hookSaw) *Module { return faultyModule(t, cfg) },
	func(t *testing.T, cfg Config, saw *[]hookSaw) *Module {
		m := faultyModule(t, cfg)
		// Idle in [from, from+interval), a window that ends inside refresh
		// epochs; at any other activation it reads the flips, as a scrub
		// does, and moves the window to the one holding now.
		interval := m.trefi/3 + 1
		var from sim.Cycles
		m.OnActivate(func(c Coord, now sim.Cycles) {
			if now >= from && now < from+interval {
				return
			}
			*saw = append(*saw, hookSaw{now, len(m.Flips()), len(m.TransientFlips())})
			from = now - now%interval
		}, func() (sim.Cycles, sim.Cycles) { return from, from + interval })
		return m
	},
}

// faultyModule is a module with injected refresh skips and transient ECC
// errors.
func faultyModule(t *testing.T, cfg Config) *Module {
	m := mustModule(t, cfg)
	fc := FaultConfig{RefreshSkipRate: 0.3, ECCCorrectableRate: 0.05, ECCUncorrectableRate: 0.02}
	if err := m.InjectFaults(fc, sim.NewRand(11)); err != nil {
		t.Fatal(err)
	}
	return m
}

// FuzzRefMatchesAccess drives twin modules, drawn from refModuleKinds, with
// the same accesses: random banks in both ranks, rows at both edges of a
// bank, times stepping across refresh slots, refresh-stall windows, epoch
// ends and the rows' refresh sweeps, and rows planted weak enough to flip.
// The reference twin serves every access through AccessCoord. The other
// reads runs of one to four lines, repeated 1 to 64 times, through
// ReadRefs, with refs resolved once per line and kept: resolving a ref
// must change nothing, and ReadRefs must leave the module (refState:
// stats, banks, victim records bit for bit, flips, transient flips, memos)
// exactly as the reference's AccessCoord calls do, with the same summed and
// last latencies, whether it reads live or repeats a steady run, and the
// scrubber-like hook must act at the same times and see the same flips on
// both. A run whose refs do not resolve goes through AccessCoord on both.
// A mismatch names only the parts of refState that differ.
func FuzzRefMatchesAccess(f *testing.F) {
	// Four random inputs; their first bytes draw the interceptor kind three
	// times and the scrubber kind once.
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRand(seed)
		b := make([]byte, 2048)
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		f.Add(b)
	}
	// One input of each module kind.
	for kind := range refModuleKinds {
		rng := sim.NewRand(uint64(100 + kind))
		b := make([]byte, 2048)
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		b[0] = byte(kind)
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
		build := refModuleKinds[next()%len(refModuleKinds)]
		var ms [2]*Module // the reference, and the twin reading through refs
		var saw [2][]hookSaw
		for i := range ms {
			ms[i] = build(t, cfg, &saw[i])
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
		state := func(i, from, fromTransient int) refState {
			return readRefState(ms[i], banks, rows, from, fromTransient)
		}
		refs := map[Coord]Ref{}
		half := ms[0].trefi / 2 // every slot of two staggered ranks
		var now sim.Cycles
		runs, steady := 0, 0              // runs through refs, and reads the steady repeat applied
		checked, checkedTransient := 0, 0 // flips already compared
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
				for i := range run {
					coords[i] = coord()
					run[i].Gap = sim.Cycles(next())
					ref, ok := refs[coords[i]]
					if !ok {
						if ref, ok = ms[1].Ref(ms[1].mapper.Unmap(coords[i])); ok {
							refs[coords[i]] = ref
						}
					}
					run[i].Ref, resolved = ref, resolved && ok
				}
				tail, k := sim.Cycles(next()), 1+next()%64
				if d := state(0, checked, checkedTransient).diff(state(1, checked, checkedTransient)); d != "" {
					t.Fatalf("step %d: resolving refs changed the module (reference, then through refs):\n%s", step, d)
				}
				var rr RefRun
				if resolved {
					rr = ms[1].ReadRefs(run, now, tail, k)
					runs++
					steady += rr.Steady
				}
				var sum, last sim.Cycles
				for rep := 0; rep < k; rep++ {
					for i, c := range coords {
						now += run[i].Gap
						last = ms[0].AccessCoord(c, false, now).Latency
						if !resolved {
							ms[1].AccessCoord(c, false, now)
						}
						now += last
						sum += last
					}
					now += tail
				}
				if resolved && (rr.Latency != sum || rr.Last != last) {
					t.Fatalf("step %d: %d repetitions of the run: AccessCoord latency %d, last %d; ReadRefs %d, last %d",
						step, k, sum, last, rr.Latency, rr.Last)
				}
			}
			if d := state(0, checked, checkedTransient).diff(state(1, checked, checkedTransient)); d != "" {
				t.Fatalf("step %d: the modules differ (reference, then through refs):\n%s", step, d)
			}
			if !slices.Equal(saw[0], saw[1]) {
				t.Fatalf("step %d: the hooks saw different things\nreference:    %+v\nthrough refs: %+v", step, saw[0], saw[1])
			}
			checked, checkedTransient = len(ms[0].flips), len(ms[0].transient)
		}
		t.Logf("%d runs through refs, %d reads steady, %d flips", runs, steady, len(ms[0].flips))
	})
}
