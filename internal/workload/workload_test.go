package workload

import (
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/pmu"
)

// mustNew builds a profile's synthetic program, failing the test on error.
func mustNew(tb testing.TB, p Profile) *Synthetic {
	tb.Helper()
	s, err := New(p)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestProfileValidation(t *testing.T) {
	bad := []Profile{
		{},
		{Name: "x", FootprintMB: 0},
		{Name: "x", FootprintMB: 4, Pattern: Skewed, Skew: 0.5},
		{Name: "x", FootprintMB: 4, Skew: 1, HotPerCold: -1},
		{Name: "x", FootprintMB: 4, Skew: 1, StoreFrac: 1.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
	for _, p := range SPEC2006() {
		if err := p.Validate(); err != nil {
			t.Errorf("SPEC profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestSPEC2006Complete(t *testing.T) {
	ps := SPEC2006()
	if len(ps) != 12 {
		t.Fatalf("got %d profiles, want 12", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
	}
	for _, name := range append(MemoryIntensive(), ComputeBound()...) {
		if !seen[name] {
			t.Errorf("class list references unknown profile %s", name)
		}
	}
	trio, err := HeavyLoadTrio()
	if err != nil {
		t.Fatalf("HeavyLoadTrio: %v", err)
	}
	if len(trio) != 3 {
		t.Error("heavy-load trio wrong size")
	}
	if _, ok := ByName("mcf"); !ok {
		t.Error("ByName(mcf) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	p, _ := ByName("bzip2")
	a := mustNew(t, p)
	b := mustNew(t, p)
	// Address streams must be identical for identical seeds.
	for i := 0; i < 1000; i++ {
		oa, ob := a.Next(), b.Next()
		if oa != ob {
			t.Fatalf("op %d diverged: %+v vs %+v", i, oa, ob)
		}
	}
}

func TestSyntheticOpLimit(t *testing.T) {
	p, _ := ByName("hmmer")
	s := mustNew(t, p).WithOpLimit(100)
	memOps := 0
	for i := 0; i < 10000; i++ {
		op := s.Next()
		if op.Kind == machine.OpDone {
			break
		}
		if op.Kind == machine.OpLoad || op.Kind == machine.OpStore {
			memOps++
		}
	}
	if memOps != 100 {
		t.Errorf("mem ops before done = %d, want 100", memOps)
	}
	if s.MemOps() != 100 {
		t.Errorf("MemOps() = %d", s.MemOps())
	}
}

func TestSyntheticStoreFraction(t *testing.T) {
	p, _ := ByName("hmmer") // StoreFrac 0.45
	s := mustNew(t, p)
	loads, stores := 0, 0
	for i := 0; i < 40000; i++ {
		switch s.Next().Kind {
		case machine.OpLoad:
			loads++
		case machine.OpStore:
			stores++
		}
	}
	frac := float64(stores) / float64(loads+stores)
	if frac < 0.40 || frac > 0.50 {
		t.Errorf("store fraction = %g, want ~0.45", frac)
	}
}

func TestStreamPatternIsSequential(t *testing.T) {
	p, _ := ByName("libquantum")
	s := mustNew(t, p)
	var prev uint64
	first := true
	count := 0
	for i := 0; i < 2000 && count < 100; i++ {
		op := s.Next()
		if op.Kind != machine.OpLoad && op.Kind != machine.OpStore {
			continue
		}
		if op.VA < coldBase {
			continue // hot access
		}
		if !first && op.VA != prev+64 && op.VA != coldBase {
			t.Fatalf("stream jumped from %#x to %#x", prev, op.VA)
		}
		prev = op.VA
		first = false
		count++
	}
}

func TestSkewConcentratesRows(t *testing.T) {
	countTopRowShare := func(skew float64) float64 {
		p := Profile{Name: "t", Pattern: Skewed, FootprintMB: 8, Skew: skew, Compute: 10, Seed: 9}
		s := mustNew(t, p)
		rows := map[uint64]int{}
		const n = 20000
		for i := 0; i < n*2; i++ {
			op := s.Next()
			if op.Kind == machine.OpLoad || op.Kind == machine.OpStore {
				rows[(op.VA-coldBase)/rowBytes]++
			}
		}
		max := 0
		for _, c := range rows {
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(n)
	}
	uniform := countTopRowShare(1.0)
	skewed := countTopRowShare(2.2)
	if skewed < 3*uniform {
		t.Errorf("skew 2.2 top-row share %.4f not much larger than uniform %.4f", skewed, uniform)
	}
}

// TestMissRateClasses runs each profile on the machine and checks the
// stage-1 classes of §4.3: the memory-intensive four sustain more than 20K
// LLC misses per 6ms, the compute-bound four far fewer.
func TestMissRateClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run")
	}
	const window = 6 * time.Millisecond
	rate := func(name string) float64 {
		prof, ok := ByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		cfg := machine.DefaultConfig()
		cfg.Cores = 1
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Spawn(0, mustNew(t, prof)); err != nil {
			t.Fatal(err)
		}
		// Warm up 6ms, then measure 24ms.
		if err := m.Run(m.Freq.Cycles(window)); err != nil {
			t.Fatal(err)
		}
		start := m.Mem.PMU.Read(pmu.EvLLCMiss)
		if err := m.Run(m.Freq.Cycles(5 * window)); err != nil {
			t.Fatal(err)
		}
		misses := m.Mem.PMU.Read(pmu.EvLLCMiss) - start
		return float64(misses) / 4 // per 6ms window
	}
	for _, name := range MemoryIntensive() {
		if r := rate(name); r < 20_000 {
			t.Errorf("%s: %.0f misses/6ms, want > 20000 (memory-intensive)", name, r)
		}
	}
	for _, name := range ComputeBound() {
		if r := rate(name); r > 10_000 {
			t.Errorf("%s: %.0f misses/6ms, want well under 20000 (compute-bound)", name, r)
		}
	}
}

func TestActiveRegionSlidesDeterministically(t *testing.T) {
	p := Profile{Name: "r", Pattern: Skewed, FootprintMB: 8, Skew: 1.5, Compute: 10,
		RegionKB: 512, RegionFrac: 1.0, RegionPeriod: 1000, Seed: 5}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, p)
	region := uint64(p.RegionKB) << 10
	bases := map[uint64]bool{}
	for i := 0; i < 40000; i++ {
		op := s.Next()
		if op.Kind != machine.OpLoad && op.Kind != machine.OpStore {
			continue
		}
		// Track which region-sized windows the accesses land in.
		bases[(op.VA-coldBase)/region*region] = true
	}
	if len(bases) < 3 {
		t.Errorf("region never slid: bases=%v", bases)
	}
	// Determinism.
	a, b := mustNew(t, p), mustNew(t, p)
	for i := 0; i < 5000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("region stream nondeterministic at %d", i)
		}
	}
}

func TestRegionAddressesWithinFootprint(t *testing.T) {
	p := Profile{Name: "r", Pattern: Skewed, FootprintMB: 4, Skew: 1.2, Compute: 10,
		RegionKB: 1024, RegionFrac: 0.5, RegionPeriod: 500, Seed: 8}
	s := mustNew(t, p)
	for i := 0; i < 50000; i++ {
		op := s.Next()
		if op.Kind == machine.OpLoad || op.Kind == machine.OpStore {
			if op.VA >= coldBase && op.VA >= coldBase+uint64(p.FootprintMB)<<20 {
				t.Fatalf("cold access %#x outside the footprint", op.VA)
			}
		}
	}
}

func TestNewRejectsInvalidProfile(t *testing.T) {
	if _, err := New(Profile{}); err == nil {
		t.Error("empty profile accepted")
	}
	if _, err := New(Profile{Name: "x", FootprintMB: -1}); err == nil {
		t.Error("negative footprint accepted")
	}
}

func TestHeavyLoadNamesResolve(t *testing.T) {
	for _, name := range HeavyLoadNames() {
		if _, ok := ByName(name); !ok {
			t.Errorf("heavy-load name %q missing from SPEC2006", name)
		}
	}
}

// TestSyntheticPendingBounded advances fewer operations than each NextRun
// view offers — as the machine does whenever a timer or PMU-overflow horizon
// cuts an epoch short — and checks that the pregenerated buffer stays
// bounded and the committed stream is the per-op Next stream.
func TestSyntheticPendingBounded(t *testing.T) {
	p, _ := ByName("bzip2")
	batched, ref := mustNew(t, p), mustNew(t, p)
	const max = 64
	for round := 0; round < 5000; round++ {
		view := batched.NextRun(max)
		n := round % len(view)
		for i, op := range view[:n] {
			if want := ref.Next(); op != want {
				t.Fatalf("round %d op %d: batched %+v, per-op %+v", round, i, op, want)
			}
		}
		batched.Advance(n)
		if len(batched.pending) > max {
			t.Fatalf("round %d: %d operations buffered, want at most %d", round, len(batched.pending), max)
		}
	}
}
