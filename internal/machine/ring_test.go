package machine

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/defense"
	"repro/internal/dram"
	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/vm"
)

const ringBase = 0x4000_0000

// ringProg is a periodic program over a buffer of a few pages: one fixed
// iteration repeated, budget times (0: forever).
type ringProg struct {
	iter     []Op
	pages    uint64
	budget   uint64
	unrolled []Op // whole iterations, at least one full batch
	i        uint64
	proc     *Proc
}

var _ PeriodicProgram = (*ringProg)(nil)

var ringDone = [1]Op{{Kind: OpDone}}

func (p *ringProg) Name() string { return "ring-prog" }

func (p *ringProg) Init(pr *Proc) error {
	p.proc = pr
	for len(p.unrolled) < 2*DefaultBatchCap {
		p.unrolled = append(p.unrolled, p.iter...)
	}
	return pr.AS.Map(ringBase, p.pages*vm.PageSize)
}

func (p *ringProg) left() uint64 {
	if p.budget == 0 {
		return ^uint64(0)
	}
	return p.budget*uint64(len(p.iter)) - p.i
}

func (p *ringProg) Next() Op {
	if p.left() == 0 {
		return Op{Kind: OpDone}
	}
	op := p.iter[p.i%uint64(len(p.iter))]
	p.i++
	return op
}

func (p *ringProg) NextRun(max int) []Op {
	left := p.left()
	if left == 0 {
		return ringDone[:]
	}
	start := p.i % uint64(len(p.unrolled))
	end := min(uint64(len(p.unrolled)), start+uint64(max))
	if left < end-start {
		end = start + left
	}
	return p.unrolled[start:end]
}

func (p *ringProg) Advance(n int) { p.i += uint64(n) }

func (p *ringProg) Period() (uint64, []Op) { return p.i, p.iter }

// remap moves the buffer to new frames.
func (p *ringProg) remap() error {
	p.proc.AS.Unmap(ringBase, p.pages*vm.PageSize)
	return p.proc.AS.Map(ringBase, p.pages*vm.PageSize)
}

// counters is every counter a run leaves on a machine, and its clocks.
type counters struct {
	Cores  []CoreStats
	Clocks []sim.Cycles
	Levels []cache.LevelStats
	Caches cache.HierarchyStats
	DRAM   dram.Stats
	PMU    []uint64
	// Flips is every flip the module recorded, and Units the bits of the
	// disturbance accumulators of every row within two of a row the
	// program's iteration touches.
	Flips []dram.BitFlip
	Units []uint64
}

// rows returns the DRAM coordinates of the lines p's iteration touches.
func (p *ringProg) rows(m *Machine) []dram.Coord {
	var rows []dram.Coord
	for _, op := range p.iter {
		if pa, err := p.proc.AS.Translate(op.VA); err == nil {
			rows = append(rows, m.Mem.DRAM.Mapper().Map(pa))
		}
	}
	return rows
}

func readCounters(m *Machine, p *ringProg) counters {
	var c counters
	for _, core := range m.Cores {
		c.Cores = append(c.Cores, core.Stats)
		c.Clocks = append(c.Clocks, core.Now)
	}
	h := m.Mem.Caches
	for i := range DefaultConfig().Memory.Cache.Levels {
		c.Levels = append(c.Levels, h.Level(i).Stats())
	}
	c.Caches = h.Stats()
	c.DRAM = m.Mem.DRAM.Stats()
	for e := pmu.EvLLCMiss; e <= pmu.EvLLCReference; e++ {
		c.PMU = append(c.PMU, m.Mem.PMU.Read(e))
	}
	c.Flips = m.Mem.DRAM.Flips()
	for _, r := range p.rows(m) {
		for row := r.Row - 2; row <= r.Row+2; row++ {
			c.Units = append(c.Units, math.Float64bits(m.Mem.DRAM.VictimUnits(r.Bank, row, m.Time())))
		}
	}
	return c
}

// ringTwins builds a machine at the default batch cap and a per-op twin
// (BatchCap 1), each running its own copy of prog from scattered frames.
func ringTwins(t testing.TB, prog ringProg) (twins [2]*Machine, progs [2]*ringProg) {
	t.Helper()
	for i, bc := range []int{0, 1} {
		cfg := DefaultConfig()
		cfg.Cores = 1
		cfg.BatchCap = bc
		cfg.AllocPolicy = vm.Scatter
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := prog
		p.iter = append([]Op(nil), prog.iter...)
		if _, err := m.Spawn(0, &p); err != nil {
			t.Fatal(err)
		}
		twins[i], progs[i] = m, &p
	}
	return twins, progs
}

// TestRingFollowsRemap unmaps and re-maps a periodic program's buffer
// between runs, so its frames change: the batched machine must rebuild its
// translated ring, keep serving from it, and agree with per-op stepping on
// every counter. A hammer loop, whose iterations the memory system skips
// whole, must keep being skipped after every remap, from summaries of the
// new cycle.
func TestRingFollowsRemap(t *testing.T) {
	cases := []struct {
		name  string
		prog  ringProg
		skips bool
	}{
		{"mixed", ringProg{pages: 3, iter: []Op{
			{Kind: OpLoad, VA: ringBase + 64}, {Kind: OpFlush, VA: ringBase + 64},
			{Kind: OpStore, VA: ringBase + vm.PageSize + 128}, {Kind: OpLoad, VA: ringBase + 2*vm.PageSize},
			{Kind: OpFlush, VA: ringBase + 2*vm.PageSize}, {Kind: OpFlush, VA: ringBase + vm.PageSize + 128},
		}}, false},
		{"hammer", ringProg{pages: 2, iter: []Op{
			{Kind: OpLoad, VA: ringBase}, {Kind: OpFlush, VA: ringBase},
			{Kind: OpLoad, VA: ringBase + vm.PageSize}, {Kind: OpFlush, VA: ringBase + vm.PageSize},
		}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ms, ps := ringTwins(t, c.prog)
			for run := 0; run < 4; run++ {
				served, skipped, ops := RingServed(ms[0]), ms[0].itersSkipped, ms[0].Cores[0].Stats.Ops
				var before [2]uint64
				for i, m := range ms {
					if run > 0 {
						before[i], _ = ps[i].proc.AS.Translate(ringBase)
						if err := ps[i].remap(); err != nil {
							t.Fatal(err)
						}
						if after, _ := ps[i].proc.AS.Translate(ringBase); after == before[i] {
							t.Fatalf("run %d: remap kept frame %#x", run, after)
						}
					}
					if err := m.RunFor(200_000); err != nil {
						t.Fatal(err)
					}
				}
				batched, perOp := readCounters(ms[0], ps[0]), readCounters(ms[1], ps[1])
				if !reflect.DeepEqual(batched, perOp) {
					t.Fatalf("run %d: counters differ\nbatched: %+v\nper-op:  %+v", run, batched, perOp)
				}
				if RingServed(ms[0])-served < (batched.Cores[0].Ops-ops)/2 {
					t.Errorf("run %d: the ring served %d requests, want most of the run's", run, RingServed(ms[0])-served)
				}
				if n := ms[0].itersSkipped - skipped; (n > 0) != c.skips {
					t.Errorf("run %d: the skip applied %d iterations; want some: %v", run, n, c.skips)
				}
			}
		})
	}
}

// TestRingFaultMatchesPerOp puts an unmapped VA in a periodic program's
// iteration: the batched machine builds no ring and reports the page fault
// with the same wrapping, at the same point, as per-op stepping.
func TestRingFaultMatchesPerOp(t *testing.T) {
	prog := ringProg{pages: 1, iter: []Op{
		{Kind: OpLoad, VA: ringBase}, {Kind: OpStore, VA: ringBase + 64},
		{Kind: OpLoad, VA: ringBase + 5*vm.PageSize},
	}}
	ms, ps := ringTwins(t, prog)
	var errs [2]error
	for i, m := range ms {
		errs[i] = m.RunFor(1 << 20)
		if !errors.Is(errs[i], vm.ErrUnmapped) {
			t.Fatalf("machine %d: Run = %v, want a page fault", i, errs[i])
		}
	}
	if errs[0].Error() != errs[1].Error() {
		t.Errorf("batched error %q, per-op error %q", errs[0], errs[1])
	}
	if batched, perOp := readCounters(ms[0], ps[0]), readCounters(ms[1], ps[1]); !reflect.DeepEqual(batched, perOp) {
		t.Errorf("counters differ\nbatched: %+v\nper-op:  %+v", batched, perOp)
	}
	if n := RingServed(ms[0]); n != 0 {
		t.Errorf("the ring served %d requests of an iteration that faults", n)
	}
}

// ringHardware are the DRAM modules FuzzPeriodicRingMatchesPerOp draws,
// each set up identically on both twins: no defense; PARA, TRR or ARMOR,
// with parameters that act within a short run; injected refresh skips; and
// transient ECC errors under an ECC scrubber. The iteration skip serves the
// reads of every one of them live.
var ringHardware = []func(t *testing.T, m *dram.Module){
	func(*testing.T, *dram.Module) {},
	func(t *testing.T, m *dram.Module) {
		d, err := defense.NewPARA(0.01, 0x9a9a)
		attach(t, m, d, err)
	},
	func(t *testing.T, m *dram.Module) {
		d, err := defense.NewTRR(40, 200_000)
		attach(t, m, d, err)
	},
	func(t *testing.T, m *dram.Module) {
		d, err := defense.NewARMOR(30, 2, 150_000)
		attach(t, m, d, err)
	},
	func(t *testing.T, m *dram.Module) {
		if err := m.InjectFaults(dram.FaultConfig{RefreshSkipRate: 0.5}, sim.NewRand(0x5c1)); err != nil {
			t.Fatal(err)
		}
	},
	func(t *testing.T, m *dram.Module) {
		fc := dram.FaultConfig{ECCCorrectableRate: 0.01, ECCUncorrectableRate: 0.005}
		if err := m.InjectFaults(fc, sim.NewRand(0xecc)); err != nil {
			t.Fatal(err)
		}
		d, err := defense.NewECC(100_000, 64)
		attach(t, m, d, err)
	},
}

// attach attaches the defense d, built with error err, to m.
func attach(t *testing.T, m *dram.Module, d defense.Defense, err error) {
	if err != nil {
		t.Fatal(err)
	}
	d.Attach(m)
}

// FuzzPeriodicRingMatchesPerOp draws random periodic programs — 1–48
// loads, stores and flushes over up to four pages — with random budgets
// and run lengths, remaps between runs, a PMU overflow handler that
// charges the core and arms a timer, as the detector does, PEBS samplers
// whose handler charges the core too, low flip thresholds planted around
// the program's rows, so flips land inside skipped iterations, and, from a
// trailing byte, a defense or injected DRAM fault (ringHardware). The
// batched machine, which serves the program from its translated ring and
// skips whole iterations, and a BatchCap 1 twin must agree on every
// counter, on the clock, on every flip and sample, and bit for bit on the
// disturbance accumulators around the program's rows.
func FuzzPeriodicRingMatchesPerOp(f *testing.F) {
	// Programs over up to 64 lines per page: a missing line count keeps
	// all 64.
	f.Add([]byte{0, 3, 0, 9, 20, 3, 0x12, 0x34, 0, 0, 0})
	f.Add([]byte{3, 47, 1, 40, 200, 3, 0xbe, 0xef, 0, 2, 7, 60})
	f.Add([]byte{1, 11, 0, 255, 0, 2, 0, 7, 3, 30, 200})
	// Hammer-like loops over one to three lines per page: their skipped
	// iterations miss the LLC.
	f.Add([]byte{0, 3, 0, 254, 0, 2, 0, 3, 0, 0, 30, 63})
	f.Add([]byte{1, 7, 0, 254, 0, 2, 0, 3, 0, 0, 30, 62})
	f.Add([]byte{2, 3, 0, 254, 0, 2, 0, 6, 0, 0, 30, 61})
	// An eight-request loop over four pages, two lines each, whose skipped
	// iterations activate rows, under each defense and fault.
	for hw := 1; hw < len(ringHardware); hw++ {
		f.Add([]byte{3, 7, 0, 254, 0, 2, 0, 49, 0, 0, 30, 62, byte(hw)})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteSource{b: data}
		pages := 1 + uint64(s.next()%4)
		prog := ringProg{pages: pages}
		n := 1 + s.next()%48
		if s.next()%2 == 1 {
			prog.budget = 1 + uint64(s.next())*8
		}
		every := 1 + uint64(s.next())
		charge := sim.Cycles(s.next())
		runs := 1 + s.next()%4
		rng := sim.NewRand(uint64(s.next())<<8 | uint64(s.next()))
		samplers := s.next() % 4 // bit 0 arms the load sampler, bit 1 the store sampler
		interval := sim.Cycles(1+s.next()) * 400
		weak := float64(1 + s.next()*8)
		lines := 64 - uint64(s.next()%64)  // per page; few lines make flushed lines come back
		hw := s.next() % len(ringHardware) // the trailing byte: absent, no defense
		for len(prog.iter) < n {
			va := ringBase + rng.Uint64n(pages)*vm.PageSize + rng.Uint64n(lines)*64
			prog.iter = append(prog.iter, Op{Kind: []OpKind{OpLoad, OpLoad, OpStore, OpFlush}[rng.Intn(4)], VA: va})
		}
		ms, ps := ringTwins(t, prog)
		for _, m := range ms {
			ringHardware[hw](t, m.Mem.DRAM)
			var arm func(now sim.Cycles)
			arm = func(sim.Cycles) {
				m.ChargeCurrent(charge)
				m.Kernel.At(m.Time()+sim.Cycles(every)*50, func(sim.Cycles) {})
				m.Mem.PMU.ArmOverflow(pmu.EvLLCMiss, every, arm)
			}
			m.Mem.PMU.ArmOverflow(pmu.EvLLCMiss, every, arm)
			cfg := pmu.SamplerConfig{Enabled: true, LatencyThreshold: 100, Interval: interval}
			if samplers&1 != 0 {
				m.Mem.PMU.ConfigureLoadSampler(cfg, 0)
			}
			if samplers&2 != 0 {
				m.Mem.PMU.ConfigureStoreSampler(cfg, 0)
			}
			m.Mem.PMU.OnSample(func(pmu.Sample) { m.ChargeCurrent(charge + 1) })
		}
		for run := 0; run < runs; run++ {
			d := sim.Cycles(1 + rng.Uint64n(400_000))
			remap := run > 0 && rng.Intn(2) == 0
			var errs [2]error
			var samples [2][]pmu.Sample
			for i, m := range ms {
				if remap {
					if err := ps[i].remap(); err != nil {
						t.Fatal(err)
					}
				}
				for _, r := range ps[i].rows(m) {
					for _, row := range []int{r.Row - 1, r.Row + 1} {
						if row >= 0 && row < m.Mem.DRAM.Config().Geometry.RowsPerBank {
							if err := m.Mem.DRAM.PlantWeakRow(r.Bank, row, weak); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				errs[i] = m.RunFor(d)
				samples[i] = m.Mem.PMU.Samples()
			}
			if (errs[0] == nil) != (errs[1] == nil) || errs[0] != nil && errs[0].Error() != errs[1].Error() {
				t.Fatalf("run %d: batched Run = %v, per-op Run = %v", run, errs[0], errs[1])
			}
			if batched, perOp := readCounters(ms[0], ps[0]), readCounters(ms[1], ps[1]); !reflect.DeepEqual(batched, perOp) {
				t.Fatalf("run %d: counters differ\nbatched: %+v\nper-op:  %+v", run, batched, perOp)
			}
			if !reflect.DeepEqual(samples[0], samples[1]) {
				t.Fatalf("run %d: samples differ\nbatched: %+v\nper-op:  %+v", run, samples[0], samples[1])
			}
		}
		t.Logf("hardware %d: skipped %d iterations, %d flips", hw, ms[0].itersSkipped, ms[0].Mem.DRAM.FlipCount())
	})
}

// byteSource hands out fuzz input bytes, then zeros.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}
