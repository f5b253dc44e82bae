package machine

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cache"
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
}

func readCounters(m *Machine) counters {
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
// every counter.
func TestRingFollowsRemap(t *testing.T) {
	prog := ringProg{pages: 3, iter: []Op{
		{Kind: OpLoad, VA: ringBase + 64}, {Kind: OpFlush, VA: ringBase + 64},
		{Kind: OpStore, VA: ringBase + vm.PageSize + 128}, {Kind: OpLoad, VA: ringBase + 2*vm.PageSize},
		{Kind: OpFlush, VA: ringBase + 2*vm.PageSize}, {Kind: OpFlush, VA: ringBase + vm.PageSize + 128},
	}}
	ms, ps := ringTwins(t, prog)
	for run := 0; run < 4; run++ {
		served, ops := RingServed(ms[0]), ms[0].Cores[0].Stats.Ops
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
		batched, perOp := readCounters(ms[0]), readCounters(ms[1])
		if !reflect.DeepEqual(batched, perOp) {
			t.Fatalf("run %d: counters differ\nbatched: %+v\nper-op:  %+v", run, batched, perOp)
		}
		if RingServed(ms[0])-served < (batched.Cores[0].Ops-ops)/2 {
			t.Errorf("run %d: the ring served %d requests, want most of the run's", run, RingServed(ms[0])-served)
		}
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
	ms, _ := ringTwins(t, prog)
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
	if batched, perOp := readCounters(ms[0]), readCounters(ms[1]); !reflect.DeepEqual(batched, perOp) {
		t.Errorf("counters differ\nbatched: %+v\nper-op:  %+v", batched, perOp)
	}
	if n := RingServed(ms[0]); n != 0 {
		t.Errorf("the ring served %d requests of an iteration that faults", n)
	}
}

// FuzzPeriodicRingMatchesPerOp draws random periodic programs — 1–48
// loads, stores and flushes over up to four pages — with random budgets
// and run lengths, remaps between runs, and a PMU overflow handler that
// charges the core and arms a timer, as the detector does. The batched
// machine, which serves the program from its translated ring, and a
// BatchCap 1 twin must agree on every counter and on the clock.
func FuzzPeriodicRingMatchesPerOp(f *testing.F) {
	f.Add([]byte{0, 3, 0, 9, 20, 3, 0x12, 0x34})
	f.Add([]byte{3, 47, 1, 40, 200, 3, 0xbe, 0xef})
	f.Add([]byte{1, 11, 0, 255, 0, 2, 0, 7})
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
		for len(prog.iter) < n {
			va := ringBase + rng.Uint64n(pages)*vm.PageSize + rng.Uint64n(64)*64
			prog.iter = append(prog.iter, Op{Kind: []OpKind{OpLoad, OpLoad, OpStore, OpFlush}[rng.Intn(4)], VA: va})
		}
		ms, ps := ringTwins(t, prog)
		for _, m := range ms {
			var arm func(now sim.Cycles)
			arm = func(sim.Cycles) {
				m.ChargeCurrent(charge)
				m.Kernel.At(m.Time()+sim.Cycles(every)*50, func(sim.Cycles) {})
				m.Mem.PMU.ArmOverflow(pmu.EvLLCMiss, every, arm)
			}
			m.Mem.PMU.ArmOverflow(pmu.EvLLCMiss, every, arm)
		}
		for run := 0; run < runs; run++ {
			d := sim.Cycles(1 + rng.Uint64n(400_000))
			remap := run > 0 && rng.Intn(2) == 0
			var errs [2]error
			for i, m := range ms {
				if remap {
					if err := ps[i].remap(); err != nil {
						t.Fatal(err)
					}
				}
				errs[i] = m.RunFor(d)
			}
			if (errs[0] == nil) != (errs[1] == nil) || errs[0] != nil && errs[0].Error() != errs[1].Error() {
				t.Fatalf("run %d: batched Run = %v, per-op Run = %v", run, errs[0], errs[1])
			}
			if batched, perOp := readCounters(ms[0]), readCounters(ms[1]); !reflect.DeepEqual(batched, perOp) {
				t.Fatalf("run %d: counters differ\nbatched: %+v\nper-op:  %+v", run, batched, perOp)
			}
		}
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
