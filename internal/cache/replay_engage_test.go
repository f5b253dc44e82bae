package cache_test

import (
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// servedShare runs spec for d and reports the share of the hierarchy's
// requests (loads, stores and flushes) that replay served.
func servedShare(t *testing.T, spec scenario.Spec, d time.Duration) float64 {
	t.Helper()
	in, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.RunFor(d); err != nil {
		t.Fatal(err)
	}
	h := in.Machine.Mem.Caches
	st := h.Stats()
	reqs := st.Loads + st.Stores + st.Flushes
	if reqs == 0 {
		t.Fatal("no cache requests")
	}
	return float64(cache.ReplayServed(h)) / float64(reqs)
}

// TestReplayEngages pins where steady-state replay works: it serves most
// requests of each Table 1 attack and of a clean fault-matrix replicate
// (the double-sided attack under ANVIL-baseline). Without it, a change
// that silently switched replay off would only lose speed.
func TestReplayEngages(t *testing.T) {
	d := 4 * time.Millisecond
	if testing.Short() {
		d = time.Millisecond
	}
	for _, k := range scenario.AttackKinds() {
		spec := scenario.Spec{Cores: 1, Seed: 3, Attack: &scenario.Attack{Kind: k}}
		if got := servedShare(t, spec, d); got < 0.9 {
			t.Errorf("%s: replay served %.3f of the requests, want >= 0.9", k, got)
		}
	}
	spec := scenario.Spec{Cores: 1, Seed: 7, Attack: &scenario.Attack{Kind: scenario.DoubleSidedFlush},
		Defense: scenario.ANVILBaseline}
	if got := servedShare(t, spec, d); got < 0.9 {
		t.Errorf("fault-matrix clean replicate: replay served %.3f of the requests, want >= 0.9", got)
	}
}

// TestReplayStaysOff pins where replay must not run: per-op stepping (the
// reference), a random LLC policy, and a 4-core Table 3 point whose
// co-runners share the caches.
func TestReplayStaysOff(t *testing.T) {
	const d = time.Millisecond
	attack := &scenario.Attack{Kind: scenario.ClflushFree}
	heavy := []scenario.Workload{}
	for _, name := range workload.HeavyLoadNames() {
		heavy = append(heavy, scenario.Workload{Name: name})
	}
	cases := map[string]scenario.Spec{
		"StepBatch=1": {Cores: 1, Attack: attack, StepBatch: 1},
		"random LLC": {Cores: 1, Attack: attack, Mutate: func(c *machine.Config) {
			c.Memory.Cache.Levels[len(c.Memory.Cache.Levels)-1].Policy = cache.Random
		}},
		"table3 heavy": {Cores: 4, Attack: attack, Defense: scenario.ANVILBaseline, Workloads: heavy},
	}
	for name, spec := range cases {
		if got := servedShare(t, spec, d); got != 0 {
			t.Errorf("%s: replay served %.3f of the requests, want none", name, got)
		}
	}
}
