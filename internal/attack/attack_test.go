package attack

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/vm"
)

func testMachine(t *testing.T) *machine.Machine {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Cores = 1
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func baseOptions(m *machine.Machine) Options {
	return Options{
		Mapper:     m.Mem.DRAM.Mapper(),
		LLC:        cache.SandyBridgeConfig().Levels[2],
		AutoTarget: true,
		BufferMB:   16,
		Contiguous: true,
	}
}

// runUntilFlip drives the machine until a bit flips or the deadline, in
// coarse slices; it returns the flip time (or false).
func runUntilFlip(t *testing.T, m *machine.Machine, deadline time.Duration) (time.Duration, bool) {
	t.Helper()
	slice := m.Freq.Cycles(time.Millisecond)
	end := m.Freq.Cycles(deadline)
	for now := sim.Cycles(0); now < end; now += slice {
		if err := m.Run(now + slice); err != nil && !errors.Is(err, machine.ErrAllDone) {
			t.Fatal(err)
		}
		if m.Mem.DRAM.FlipCount() > 0 {
			return m.Freq.Duration(m.Mem.DRAM.Flips()[0].Time), true
		}
	}
	return 0, false
}

func plantVictim(t *testing.T, m *machine.Machine, h interface{ Victim() Target }) {
	t.Helper()
	v := h.Victim()
	if v.Bank == 0 && v.VictimRow == 0 {
		t.Fatal("attack did not resolve a target")
	}
	// The weakest cells the paper's module exhibited: 400K disturbance units.
	m.Mem.DRAM.PlantWeakRow(v.Bank, v.VictimRow, 400_000)
}

func TestDoubleSidedFlushFlipsInTime(t *testing.T) {
	m := testMachine(t)
	a, err := NewDoubleSidedFlush(baseOptions(m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn(0, a); err != nil {
		t.Fatal(err)
	}
	plantVictim(t, m, a)
	ft, ok := runUntilFlip(t, m, 64*time.Millisecond)
	if !ok {
		t.Fatal("double-sided CLFLUSH attack never flipped within one 64ms refresh window")
	}
	// Paper: 15ms. Shape bound: well under half a refresh window.
	if ft > 32*time.Millisecond {
		t.Errorf("time to first flip %v, want < 32ms", ft)
	}
	// Paper: 220K accesses minimum. With the alternation bonus the count
	// should land close to 400K/1.82 ≈ 220K.
	acc := a.AggressorAccesses()
	if acc < 200_000 || acc > 260_000 {
		t.Errorf("aggressor accesses at flip ≈ %d, want ~220K", acc)
	}
}

func TestSingleSidedFlushSlower(t *testing.T) {
	m := testMachine(t)
	a, err := NewSingleSidedFlush(baseOptions(m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn(0, a); err != nil {
		t.Fatal(err)
	}
	plantVictim(t, m, a)
	ft, ok := runUntilFlip(t, m, 150*time.Millisecond)
	if !ok {
		t.Fatal("single-sided CLFLUSH attack never flipped")
	}
	// Paper: 58ms and 400K accesses (no double-sided bonus).
	if ft < 32*time.Millisecond {
		t.Errorf("single-sided flipped in %v; should be slower than double-sided", ft)
	}
	acc := a.AggressorAccesses()
	if acc < 380_000 || acc > 440_000 {
		t.Errorf("aggressor accesses at flip ≈ %d, want ~400K", acc)
	}
}

func TestClflushFreePatternProperties(t *testing.T) {
	m := testMachine(t)
	a, err := NewClflushFree(baseOptions(m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn(0, a); err != nil {
		t.Fatal(err)
	}
	x, y := a.Patterns()
	for _, p := range []Pattern{x, y} {
		if len(p.Addrs) != 13 {
			t.Errorf("pattern has %d addresses, want 13 (12-way + aggressor)", len(p.Addrs))
		}
		if p.MissesPerIteration < 2 || p.MissesPerIteration > 3 {
			t.Errorf("pattern misses %d per iteration, want 2-3", p.MissesPerIteration)
		}
		if p.AggressorSlot < 0 || p.AggressorSlot >= len(p.Addrs) {
			t.Errorf("bad aggressor slot %d", p.AggressorSlot)
		}
	}
	if x.Addrs[x.AggressorSlot] == y.Addrs[y.AggressorSlot] {
		t.Error("both patterns share one aggressor")
	}
}

func TestClflushFreeFlips(t *testing.T) {
	m := testMachine(t)
	a, err := NewClflushFree(baseOptions(m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn(0, a); err != nil {
		t.Fatal(err)
	}
	plantVictim(t, m, a)
	ft, ok := runUntilFlip(t, m, 64*time.Millisecond)
	if !ok {
		t.Fatal("CLFLUSH-free attack never flipped within one 64ms refresh window")
	}
	// Paper: 45ms — slower than CLFLUSH-based double-sided (15ms), still
	// within a single refresh window, using loads only.
	if ft < 20*time.Millisecond || ft > 64*time.Millisecond {
		t.Errorf("CLFLUSH-free time to first flip %v, want between double-sided (~18ms) and 64ms", ft)
	}
	if fl := m.Cores[0].Stats.Flushes; fl != 0 {
		t.Errorf("CLFLUSH-free attack executed %d CLFLUSH ops", fl)
	}
}

func TestClflushFreeAggressorMissesEveryIteration(t *testing.T) {
	// Whole-hierarchy check of the Fig. 1b property: per iteration, the
	// aggressor must reach DRAM (activate its row) exactly once.
	m := testMachine(t)
	a, err := NewClflushFree(baseOptions(m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn(0, a); err != nil {
		t.Fatal(err)
	}
	// About 2,000 iterations.
	if err := m.Run(m.Freq.Cycles(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	v := a.Victim()
	// After warm-up, both aggressor rows must be activated ~once per
	// iteration; check via the victim's accumulated disturbance.
	units := m.Mem.DRAM.VictimUnits(v.Bank, v.VictimRow, m.Time())
	iters := float64(a.Iterations())
	// Perfect double-sided: ~1.82 units per side-pair = 2*1.82 per iteration...
	// each iteration contributes 2 accesses * 1.82 units (after warm-up).
	// Written to fail on NaN too, should no iteration complete.
	perIter := units / iters
	if !(perIter >= 3.0 && perIter <= 3.7) {
		t.Errorf("victim receives %.2f units/iteration, want ~3.6 (2 alternating accesses)", perIter)
	}
}

func TestClflushFreeRequiresPagemap(t *testing.T) {
	m := testMachine(t)
	m.Kernel.Pagemap.Restricted = true // the kernel mitigation
	a, err := NewClflushFree(baseOptions(m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn(0, a); err == nil {
		t.Fatal("attack built eviction sets despite restricted pagemap")
	} else if !errors.Is(err, vm.ErrPagemapRestricted) {
		t.Errorf("error = %v, want pagemap restriction", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewDoubleSidedFlush(Options{}); err == nil {
		t.Error("nil mapper accepted")
	}
	m := testMachine(t)
	opts := baseOptions(m)
	opts.BufferMB = 0
	if _, err := NewSingleSidedFlush(opts); err == nil {
		t.Error("zero buffer accepted")
	}
	opts = baseOptions(m)
	opts.LLC = cache.LevelConfig{}
	if _, err := NewClflushFree(opts); err == nil {
		t.Error("missing LLC model accepted")
	}
}

func TestBuildPatternRejectsShortEvictionSet(t *testing.T) {
	es := EvictionSet{Aggressor: 0x1000, Conflicts: []uint64{1, 2, 3}}
	if _, err := BuildPattern(es, cache.BitPLRU, 12); err == nil {
		t.Error("short eviction set accepted")
	}
}

func TestReplayOnPolicyColdMisses(t *testing.T) {
	trace := ReplayOnPolicy(cache.TrueLRU, 4, []int{0, 1, 2, 3, 0, 1, 2, 3})
	for i := 0; i < 4; i++ {
		if !trace[i] {
			t.Errorf("access %d should cold-miss", i)
		}
	}
	for i := 4; i < 8; i++ {
		if trace[i] {
			t.Errorf("access %d should hit (fits in 4 ways)", i)
		}
	}
}

func TestPolicyInferenceIdentifiesBitPLRU(t *testing.T) {
	// The machine's LLC is Bit-PLRU (Sandy Bridge). The probe must rank
	// bit-plru first among the candidate simulators, reproducing §2.2.
	m := testMachine(t)
	opts := baseOptions(m)
	scores, err := RunInference(m, opts, 60, cache.AllPolicies())
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(cache.AllPolicies()) {
		t.Fatalf("scores = %v", scores)
	}
	if scores[0].Policy != cache.BitPLRU {
		t.Errorf("inference ranked %s first (%.3f), want bit-plru; full ranking: %v",
			scores[0].Policy, scores[0].Match, scores)
	}
	if scores[0].Match < 0.9 {
		t.Errorf("best match only %.3f, want > 0.9", scores[0].Match)
	}
}

func TestInferencePrefersActualPolicy(t *testing.T) {
	// Cross-check: configure the LLC with true LRU and the inference must
	// now rank lru first, not bit-plru.
	cfg := machine.DefaultConfig()
	cfg.Cores = 1
	cfg.Memory.Cache.Levels[2].Policy = cache.TrueLRU
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := baseOptions(m)
	scores, err := RunInference(m, opts, 60, cache.AllPolicies())
	if err != nil {
		t.Fatal(err)
	}
	if scores[0].Policy != cache.TrueLRU {
		t.Errorf("inference ranked %s first, want lru; ranking: %v", scores[0].Policy, scores)
	}
}

// TestHammerPeriodContract pins the machine.PeriodicProgram contract the
// batched core's request ring relies on instead of reading views: at every
// committed position p, Next and every NextRun view serve iter[p mod
// len(iter)], and the iteration never changes.
func TestHammerPeriodContract(t *testing.T) {
	builds := []struct {
		name  string
		build func(Options) (machine.PeriodicProgram, error)
	}{
		{"double-sided", func(o Options) (machine.PeriodicProgram, error) { return NewDoubleSidedFlush(o) }},
		{"single-sided", func(o Options) (machine.PeriodicProgram, error) { return NewSingleSidedFlush(o) }},
		{"clflush-free", func(o Options) (machine.PeriodicProgram, error) { return NewClflushFree(o) }},
	}
	for _, b := range builds {
		name, build := b.name, b.build
		m := testMachine(t)
		p, err := build(baseOptions(m))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Spawn(0, p); err != nil {
			t.Fatal(err)
		}
		_, iter := p.Period()
		want := append([]machine.Op(nil), iter...)
		per := uint64(len(want))
		rng := sim.NewRand(1)
		var pos uint64
		for step := 0; step < 2000; step++ {
			committed, it := p.Period()
			if committed != pos || len(it) != len(want) || &it[0] != &iter[0] {
				t.Fatalf("%s: Period = (%d, %d ops at %p), want (%d, the iteration at %p)",
					name, committed, len(it), &it[0], pos, &iter[0])
			}
			if rng.Intn(3) == 0 {
				if op := p.Next(); op != want[pos%per] {
					t.Fatalf("%s: Next at %d = %+v, want %+v", name, pos, op, want[pos%per])
				}
				pos++
				continue
			}
			limit := 1 + rng.Intn(600)
			view := p.NextRun(limit)
			if len(view) == 0 || len(view) > limit {
				t.Fatalf("%s: NextRun(%d) at %d gave %d ops", name, limit, pos, len(view))
			}
			for k, op := range view {
				if op != want[(pos+uint64(k))%per] {
					t.Fatalf("%s: view at %d, op %d = %+v, want %+v", name, pos, k, op, want[(pos+uint64(k))%per])
				}
			}
			n := rng.Intn(len(view) + 1)
			p.Advance(n)
			pos += uint64(n)
		}
		for k, op := range iter {
			if op != want[k] {
				t.Fatalf("%s: the iteration changed at op %d", name, k)
			}
		}
	}
}
