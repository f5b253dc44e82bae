package scenario

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/machine"
	"repro/internal/pmu"
)

// machineCounters is every counter a run leaves on the machine, below what
// Results reports.
type machineCounters struct {
	Levels []cache.LevelStats
	Caches cache.HierarchyStats
	DRAM   dram.Stats
	PMU    []uint64
	Cores  []machine.CoreStats
	// Flips is every flip the module recorded, and Units the bits of the
	// disturbance accumulators of every row within two of a row the
	// attack's iteration touches.
	Flips []dram.BitFlip
	Units []uint64
}

// attackRows returns the DRAM coordinates of the lines the attack's
// iteration touches.
func attackRows(t *testing.T, in *Instance) []dram.Coord {
	t.Helper()
	pp, ok := in.Hammer.(machine.PeriodicProgram)
	if !ok {
		t.Fatalf("%s is not periodic", in.Hammer.Name())
	}
	_, iter := pp.Period()
	var rows []dram.Coord
	for _, op := range iter {
		pa, err := in.Machine.Cores[0].Proc.AS.Translate(op.VA)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, in.Machine.Mem.DRAM.Mapper().Map(pa))
	}
	return rows
}

func readMachineCounters(m *machine.Machine, rows []dram.Coord) machineCounters {
	var c machineCounters
	caches := m.Mem.Caches
	for i := range machine.DefaultConfig().Memory.Cache.Levels {
		c.Levels = append(c.Levels, caches.Level(i).Stats())
	}
	c.Caches = caches.Stats()
	c.DRAM = m.Mem.DRAM.Stats()
	for e := pmu.EvLLCMiss; e <= pmu.EvLLCReference; e++ {
		c.PMU = append(c.PMU, m.Mem.PMU.Read(e))
	}
	for _, core := range m.Cores {
		c.Cores = append(c.Cores, core.Stats)
	}
	c.Flips = m.Mem.DRAM.Flips()
	for _, r := range rows {
		for row := r.Row - 2; row <= r.Row+2; row++ {
			c.Units = append(c.Units, math.Float64bits(m.Mem.DRAM.VictimUnits(r.Bank, row, m.Time())))
		}
	}
	return c
}

// TestPerOpAndBatchedCountersAgree compares the machine's counters, not
// just Results, between per-op stepping (StepBatch 1, the reference) and
// the batched core, which replays the periodic cache state of hammer
// loops and skips whole iterations: every cache level's and the
// hierarchy's counters, the DRAM module's, every PMU counter and every
// core's, every flip (bank, row, bit and time), and the disturbance
// accumulators, bit for bit, of the rows around the attack's. It runs each
// Table 1 attack to its first flip and one clean fault-matrix replicate.
func TestPerOpAndBatchedCountersAgree(t *testing.T) {
	deadline, matrix := 192*time.Millisecond, 64*time.Millisecond
	if testing.Short() {
		deadline, matrix = 16*time.Millisecond, 8*time.Millisecond
	}
	type point struct {
		name string
		spec Spec
		run  func(*Instance) error
	}
	var points []point
	for _, k := range AttackKinds() {
		points = append(points, point{"table1/" + string(k), Spec{Cores: 1, Seed: 5, Attack: &Attack{Kind: k}},
			func(in *Instance) error {
				_, _, err := in.RunUntilFlip(deadline)
				return err
			}})
	}
	// Reading the hierarchy's counters settles its replay, so each slice
	// records a new cycle from wherever the last one stopped: for
	// CLFLUSH-free, whose cycle spans four iterations, often at another
	// phase, which the iteration skip must summarise afresh.
	points = append(points, point{"table1/clflush-free/settled", Spec{Cores: 1, Seed: 5, Attack: &Attack{Kind: ClflushFree}},
		func(in *Instance) error {
			for i := 0; i < 40; i++ {
				if err := in.RunFor(deadline / 40); err != nil {
					return err
				}
				in.Machine.Mem.Caches.Stats()
			}
			return nil
		}})
	points = append(points, point{"fault-matrix/clean",
		Spec{Cores: 1, Seed: 7, Attack: &Attack{Kind: DoubleSidedFlush}, Defense: ANVILBaseline},
		func(in *Instance) error { return in.RunFor(matrix) }})
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			var got [2]machineCounters
			for i, sb := range []int{1, 0} {
				spec := p.spec
				spec.StepBatch = sb
				in, err := Build(spec)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.run(in); err != nil {
					t.Fatal(err)
				}
				got[i] = readMachineCounters(in.Machine, attackRows(t, in))
			}
			if got[0].Caches.Loads == 0 {
				t.Fatal("the run made no loads")
			}
			if !testing.Short() && p.name != "fault-matrix/clean" && len(got[0].Flips) == 0 {
				t.Fatal("the attack made no flip")
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("counters differ\nper-op:  %+v\nbatched: %+v", got[0], got[1])
			}
		})
	}
}
