package scenario

import (
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
}

func readMachineCounters(m *machine.Machine) machineCounters {
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
	return c
}

// TestPerOpAndBatchedCountersAgree compares the machine's counters, not
// just Results, between per-op stepping (StepBatch 1, the reference) and
// the batched core, which replays the periodic cache state of hammer
// loops: every cache level's and the hierarchy's counters, the DRAM
// module's, every PMU counter and every core's. It runs each Table 1
// attack to its first flip and one clean fault-matrix replicate.
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
				got[i] = readMachineCounters(in.Machine)
			}
			if got[0].Caches.Loads == 0 {
				t.Fatal("the run made no loads")
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("counters differ\nper-op:  %+v\nbatched: %+v", got[0], got[1])
			}
		})
	}
}
