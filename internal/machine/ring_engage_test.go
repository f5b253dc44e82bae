package machine_test

import (
	"testing"
	"time"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// ringShare runs spec for d and reports how many memory requests (loads,
// stores and flushes) its cores made and how many the ring served.
func ringShare(t *testing.T, spec scenario.Spec, d time.Duration) (reqs, served uint64) {
	t.Helper()
	in, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.RunFor(d); err != nil {
		t.Fatal(err)
	}
	for _, c := range in.Machine.Cores {
		reqs += c.Stats.Loads + c.Stats.Stores + c.Stats.Flushes
	}
	if reqs == 0 {
		t.Fatal("no memory requests")
	}
	return reqs, machine.RingServed(in.Machine)
}

// TestRingEngages pins where the translated request ring serves a
// periodic program: every memory request of each Table 1 attack and of a
// clean fault-matrix replicate (the double-sided attack under
// ANVIL-baseline), and none at StepBatch 1 or on the 4-core Table 3 heavy
// point, whose co-runners keep the attack from running alone. Without it,
// a change that silently fell back to gathering every view would only lose
// speed.
func TestRingEngages(t *testing.T) {
	d := 4 * time.Millisecond
	if testing.Short() {
		d = time.Millisecond
	}
	for _, k := range scenario.AttackKinds() {
		spec := scenario.Spec{Cores: 1, Seed: 3, Attack: &scenario.Attack{Kind: k}}
		if reqs, served := ringShare(t, spec, d); served != reqs {
			t.Errorf("%s: the ring served %d of %d memory requests, want all", k, served, reqs)
		}
	}
	spec := scenario.Spec{Cores: 1, Seed: 7, Attack: &scenario.Attack{Kind: scenario.DoubleSidedFlush},
		Defense: scenario.ANVILBaseline}
	if reqs, served := ringShare(t, spec, d); served != reqs {
		t.Errorf("fault-matrix clean replicate: the ring served %d of %d memory requests, want all", served, reqs)
	}
	attack := &scenario.Attack{Kind: scenario.ClflushFree}
	heavy := []scenario.Workload{}
	for _, name := range workload.HeavyLoadNames() {
		heavy = append(heavy, scenario.Workload{Name: name})
	}
	off := []struct {
		name string
		spec scenario.Spec
	}{
		{"StepBatch=1", scenario.Spec{Cores: 1, Attack: attack, StepBatch: 1}},
		{"table3 heavy", scenario.Spec{Cores: 4, Attack: attack, Defense: scenario.ANVILBaseline, Workloads: heavy}},
	}
	for _, c := range off {
		if _, served := ringShare(t, c.spec, time.Millisecond); served != 0 {
			t.Errorf("%s: the ring served %d memory requests, want none", c.name, served)
		}
	}
}

// TestIterationSkipEngages pins where memsys.AccessRun applies runs of
// whole iterations of a ring-served program at once, and where DRAM
// repeats their reads in its steady loop. Each Table 1 attack, run to its
// first flip at seed 1, is skipped for at least 95% of its iterations, and
// the steady repeat applies at least 90% of those iterations' DRAM reads.
// With injected refresh skips, and under the fault matrix's flaky-refresh
// and noisy-ecc profiles (ANVIL with 25% of REF slots skipped, or with
// transient ECC errors under an ECC scrubber, whose hook declares when it
// is idle), at least 80% are skipped and the steady repeat applies at
// least 90% of their reads. Under a hardware defense that may act on any
// activation (PARA, TRR) or intercepts activations (ARMOR), at least 80%
// are skipped and the skip reads every DRAM line live. None are skipped
// where the skip must stand aside: at StepBatch 1, with command-level DRAM
// timing (the skip's latency bound needs fixed timing), and on the 4-core
// Table 3 heavy point.
func TestIterationSkipEngages(t *testing.T) {
	for _, k := range scenario.AttackKinds() {
		in, err := scenario.Build(scenario.Spec{Cores: 1, Seed: 1, Attack: &scenario.Attack{Kind: k}})
		if err != nil {
			t.Fatal(err)
		}
		if _, flipped, err := in.RunUntilFlip(192 * time.Millisecond); err != nil || !flipped {
			t.Fatalf("%s: RunUntilFlip = %v, %v; want a flip", k, flipped, err)
		}
		iters, skipped := in.Hammer.Iterations(), machine.IterationsSkipped(in.Machine)
		steady, reads := machine.SteadyReads(in.Machine)
		t.Logf("%s: skipped %d of %d iterations (%.1f%%); the steady repeat applied %d of their %d DRAM reads (%.1f%%)",
			k, skipped, iters, 100*float64(skipped)/float64(iters), steady, reads, 100*float64(steady)/float64(reads))
		if skipped*20 < iters*19 {
			t.Errorf("%s: the skip applied %d of %d iterations, want at least 95%%", k, skipped, iters)
		}
		if steady*10 < reads*9 {
			t.Errorf("%s: the steady repeat applied %d of the skipped iterations' %d DRAM reads, want at least 90%%", k, steady, reads)
		}
	}
	attack := &scenario.Attack{Kind: scenario.DoubleSidedFlush}
	on := []struct {
		name   string
		spec   scenario.Spec
		steady bool // whether the steady repeat applies at least 90% of the reads, or none
	}{
		{"para", scenario.Spec{Cores: 1, Attack: attack, Defense: scenario.PARA}, false},
		{"trr", scenario.Spec{Cores: 1, Attack: attack, Defense: scenario.TRR}, false},
		{"armor", scenario.Spec{Cores: 1, Attack: attack, Defense: scenario.ARMOR}, false},
		{"refresh skips", scenario.Spec{Cores: 1, Attack: attack,
			Faults: fault.Spec{DRAM: fault.DRAMSpec{RefreshSkipRate: 0.5}}}, true},
		{"flaky-refresh", scenario.Spec{Cores: 1, Attack: attack, Defense: scenario.ANVILBaseline,
			Faults: fault.Spec{DRAM: fault.DRAMSpec{RefreshSkipRate: 0.25}}}, true},
		{"noisy-ecc", scenario.Spec{Cores: 1, Attack: attack, Defense: scenario.ANVILBaseline,
			Faults:   fault.Spec{DRAM: fault.DRAMSpec{ECCCorrectableRate: 2e-5, ECCUncorrectableRate: 2e-6}},
			ECCScrub: 8 * time.Millisecond}, true},
	}
	for _, c := range on {
		in, err := scenario.Build(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.RunFor(4 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		iters, skipped := in.Hammer.Iterations(), machine.IterationsSkipped(in.Machine)
		steady, reads := machine.SteadyReads(in.Machine)
		t.Logf("%s: skipped %d of %d iterations (%.1f%%); the steady repeat applied %d of their %d DRAM reads (%.1f%%)",
			c.name, skipped, iters, 100*float64(skipped)/float64(iters), steady, reads, 100*float64(steady)/float64(reads))
		if skipped*5 < iters*4 {
			t.Errorf("%s: the skip applied %d of %d iterations, want at least 80%%", c.name, skipped, iters)
		}
		switch {
		case c.steady && steady*10 < reads*9:
			t.Errorf("%s: the steady repeat applied %d of the skipped iterations' %d DRAM reads, want at least 90%%", c.name, steady, reads)
		case !c.steady && steady != 0:
			t.Errorf("%s: the steady repeat applied %d of the skipped iterations' %d DRAM reads, want none", c.name, steady, reads)
		}
	}
	heavy := []scenario.Workload{}
	for _, name := range workload.HeavyLoadNames() {
		heavy = append(heavy, scenario.Workload{Name: name})
	}
	detailed := func(c *machine.Config) { c.Memory.DRAM.Detailed = dram.Detailed(c.Freq) }
	off := []struct {
		name string
		spec scenario.Spec
	}{
		{"StepBatch=1", scenario.Spec{Cores: 1, Attack: attack, StepBatch: 1}},
		{"detailed DRAM timing", scenario.Spec{Cores: 1, Attack: attack, Mutate: detailed}},
		{"table3 heavy", scenario.Spec{Cores: 4, Attack: &scenario.Attack{Kind: scenario.ClflushFree},
			Defense: scenario.ANVILBaseline, Workloads: heavy}},
	}
	for _, c := range off {
		in, err := scenario.Build(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.RunFor(2 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if n := machine.IterationsSkipped(in.Machine); n != 0 {
			t.Errorf("%s: the skip applied %d iterations, want none", c.name, n)
		}
	}
}
