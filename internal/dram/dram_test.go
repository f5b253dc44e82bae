package dram

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig(sim.DefaultFreq)
	// Small geometry keeps scans fast in tests.
	cfg.Geometry = Geometry{Ranks: 2, BanksPerRank: 8, RowsPerBank: 4096, RowBytes: 8192}
	return cfg
}

// mustMapper builds a linear mapper, failing the test on error.
func mustMapper(tb testing.TB, g Geometry, bankHash bool) *LinearMapper {
	tb.Helper()
	m, err := NewLinearMapper(g, bankHash)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func mustModule(t *testing.T, cfg Config) *Module {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestGeometryValidate(t *testing.T) {
	good := DefaultGeometry()
	if err := good.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	bad := []Geometry{
		{Ranks: 0, BanksPerRank: 8, RowsPerBank: 16, RowBytes: 8192},
		{Ranks: 1, BanksPerRank: 0, RowsPerBank: 16, RowBytes: 8192},
		{Ranks: 1, BanksPerRank: 8, RowsPerBank: 0, RowBytes: 8192},
		{Ranks: 1, BanksPerRank: 8, RowsPerBank: 16, RowBytes: 1000},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: bad geometry validated: %+v", i, g)
		}
	}
}

func TestGeometrySize(t *testing.T) {
	g := DefaultGeometry()
	if got := g.Size(); got != 4<<30 {
		t.Errorf("Size = %d, want 4GiB", got)
	}
	if g.Banks() != 16 {
		t.Errorf("Banks = %d, want 16", g.Banks())
	}
	if g.Rank(0) != 0 || g.Rank(7) != 0 || g.Rank(8) != 1 || g.Rank(15) != 1 {
		t.Error("Rank mapping wrong")
	}
}

func TestTimingDefaults(t *testing.T) {
	tm := DefaultTiming(sim.DefaultFreq)
	if err := tm.Validate(); err != nil {
		t.Fatalf("default timing invalid: %v", err)
	}
	// 64ms / 8192 commands = 7.8125us between REFs.
	trefi := sim.DefaultFreq.Duration(tm.TREFI())
	if trefi < 7800*time.Nanosecond || trefi > 7813*time.Nanosecond {
		t.Errorf("tREFI = %v, want ~7.8125us", trefi)
	}
	double, err := tm.RefreshScaled(2)
	if err != nil {
		t.Fatal(err)
	}
	if double.RefreshPeriod != tm.RefreshPeriod/2 {
		t.Error("RefreshScaled(2) did not halve the period")
	}
}

func TestTimingValidateRejectsDisorder(t *testing.T) {
	tm := DefaultTiming(sim.DefaultFreq)
	tm.RowHit = tm.RowConflict + 1
	if err := tm.Validate(); err == nil {
		t.Error("disordered latencies validated")
	}
}

func TestLinearMapperRoundTrip(t *testing.T) {
	for _, hash := range []bool{false, true} {
		m := mustMapper(t, DefaultGeometry(), hash)
		err := quick.Check(func(pa uint64) bool {
			pa %= m.Geometry().Size()
			return m.Unmap(m.Map(pa)) == pa
		}, &quick.Config{MaxCount: 2000})
		if err != nil {
			t.Errorf("hash=%v: %v", hash, err)
		}
	}
}

func TestLinearMapperAdjacency(t *testing.T) {
	// Consecutive rows at the same bank/col must differ by exactly the
	// row-pitch in physical address space when hashing is off.
	m := mustMapper(t, DefaultGeometry(), false)
	a := m.Unmap(Coord{Bank: 3, Row: 100, Col: 0})
	b := m.Unmap(Coord{Bank: 3, Row: 101, Col: 0})
	pitch := uint64(DefaultGeometry().RowBytes * DefaultGeometry().BanksPerRank * DefaultGeometry().Ranks)
	if b-a != pitch {
		t.Errorf("row pitch = %d, want %d", b-a, pitch)
	}
	// Same row, consecutive columns are consecutive addresses.
	c0 := m.Unmap(Coord{Bank: 3, Row: 100, Col: 0})
	c1 := m.Unmap(Coord{Bank: 3, Row: 100, Col: 1})
	if c1-c0 != 1 {
		t.Errorf("col pitch = %d, want 1", c1-c0)
	}
}

func TestLinearMapperRejectsNonPow2(t *testing.T) {
	_, err := NewLinearMapper(Geometry{Ranks: 3, BanksPerRank: 8, RowsPerBank: 16, RowBytes: 8192}, false)
	if err == nil {
		t.Error("non-power-of-two geometry accepted")
	}
}

func TestRowBufferStateMachine(t *testing.T) {
	m := mustModule(t, testConfig())
	mapper := m.Mapper()
	a := mapper.Unmap(Coord{Bank: 2, Row: 10, Col: 0})
	b := mapper.Unmap(Coord{Bank: 2, Row: 20, Col: 0})

	r1 := m.Access(a, false, 1000)
	if r1.RowHit || !r1.Activated {
		t.Errorf("first access should activate: %+v", r1)
	}
	r2 := m.Access(a, false, 2000)
	if !r2.RowHit || r2.Activated {
		t.Errorf("second access to same row should row-hit: %+v", r2)
	}
	r3 := m.Access(b, false, 3000)
	if r3.RowHit || !r3.Activated {
		t.Errorf("different row should conflict: %+v", r3)
	}
	if r3.Latency < r2.Latency {
		t.Error("conflict should cost at least as much as a hit")
	}
	st := m.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 || st.RowConflicts != 1 {
		t.Errorf("stats = %+v", st)
	}
	if m.OpenRow(2) != 20 {
		t.Errorf("open row = %d, want 20", m.OpenRow(2))
	}
}

func TestBanksAreIndependent(t *testing.T) {
	m := mustModule(t, testConfig())
	mapper := m.Mapper()
	a := mapper.Unmap(Coord{Bank: 0, Row: 5, Col: 0})
	b := mapper.Unmap(Coord{Bank: 1, Row: 9, Col: 0})
	m.Access(a, false, 1000)
	m.Access(b, false, 2000)
	ra := m.Access(a, false, 3000)
	if !ra.RowHit {
		t.Error("bank 0 row should still be open after bank 1 access")
	}
}

func TestRefreshStallWindow(t *testing.T) {
	cfg := testConfig()
	m := mustModule(t, cfg)
	trefi := cfg.Timing.TREFI()
	pa := m.Mapper().Unmap(Coord{Bank: 0, Row: 1, Col: 0})

	// Access right at the start of a REF window: stalled for the full tRFC.
	res := m.Access(pa, false, trefi*5)
	if res.Stall != cfg.Timing.RFC {
		t.Errorf("stall at REF start = %d, want %d", res.Stall, cfg.Timing.RFC)
	}
	// Access after the REF completes: no stall.
	res = m.Access(pa, false, trefi*6+cfg.Timing.RFC+1)
	if res.Stall != 0 {
		t.Errorf("stall outside REF = %d, want 0", res.Stall)
	}
	if m.Stats().RefreshStalls != 1 {
		t.Errorf("RefreshStalls = %d, want 1", m.Stats().RefreshStalls)
	}
}

func TestDoubleRefreshStallsMoreOften(t *testing.T) {
	count := func(scale int) uint64 {
		cfg := testConfig()
		scaled, err := cfg.Timing.RefreshScaled(scale)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Timing = scaled
		m := mustModule(t, cfg)
		pa := m.Mapper().Unmap(Coord{Bank: 0, Row: 1, Col: 0})
		// Probe at a fixed cadence unrelated to tREFI.
		for now := sim.Cycles(0); now < sim.DefaultFreq.Cycles(10*time.Millisecond); now += 1009 {
			m.Access(pa, false, now)
		}
		return m.Stats().RefreshStalls
	}
	single, double := count(1), count(2)
	if double <= single {
		t.Errorf("double-rate refresh stalled %d times vs %d at single rate", double, single)
	}
}

func TestSingleSidedDisturbance(t *testing.T) {
	cfg := testConfig()
	m := mustModule(t, cfg)
	const victimRow = 100
	m.PlantWeakRow(0, victimRow, 1000)

	agg := m.Mapper().Unmap(Coord{Bank: 0, Row: victimRow + 1, Col: 0})
	other := m.Mapper().Unmap(Coord{Bank: 0, Row: 3000, Col: 0}) // closes the aggressor row, far from victim

	var now sim.Cycles
	flipsAt := -1
	for i := 0; i < 1100; i++ {
		m.Access(agg, false, now)
		now += 200
		m.Access(other, false, now)
		now += 200
		if flipsAt < 0 && m.FlipCount() > 0 {
			flipsAt = i + 1
		}
	}
	if flipsAt < 0 {
		t.Fatal("single-sided hammering never flipped a planted 1000-unit row")
	}
	// Exactly 1 unit per aggressor activation: flips at the 1000th.
	if flipsAt != 1000 {
		t.Errorf("flip after %d aggressor activations, want 1000", flipsAt)
	}
	f := m.Flips()[0]
	if f.Bank != 0 || f.Row != victimRow {
		t.Errorf("flip at %v, want bank 0 row %d", f, victimRow)
	}
}

func TestDoubleSidedDisturbanceIsSuperlinear(t *testing.T) {
	cfg := testConfig()
	m := mustModule(t, cfg)
	const victimRow = 200
	m.PlantWeakRow(0, victimRow, 1000)

	lo := m.Mapper().Unmap(Coord{Bank: 0, Row: victimRow - 1, Col: 0})
	hi := m.Mapper().Unmap(Coord{Bank: 0, Row: victimRow + 1, Col: 0})

	var now sim.Cycles
	accesses := 0
	for m.FlipCount() == 0 && accesses < 4000 {
		m.Access(lo, false, now)
		now += 200
		m.Access(hi, false, now)
		now += 200
		accesses += 2
	}
	if m.FlipCount() == 0 {
		t.Fatal("double-sided hammering never flipped")
	}
	// With bonus 0.82 nearly every access deposits 1.82 units into the
	// victim, so the flip arrives near 1000/1.82 ≈ 550 accesses — the same
	// ~1.8x advantage over single-sided hammering that Table 1 reports
	// (220K double-sided vs 400K single-sided accesses).
	if accesses > 600 {
		t.Errorf("double-sided needed %d accesses; expected ~550", accesses)
	}
	if accesses < 500 {
		t.Errorf("double-sided flipped after only %d accesses; bonus too strong", accesses)
	}
}

func TestVictimActivationResetsAccumulator(t *testing.T) {
	cfg := testConfig()
	m := mustModule(t, cfg)
	const victimRow = 300
	m.PlantWeakRow(0, victimRow, 1000)
	agg := m.Mapper().Unmap(Coord{Bank: 0, Row: victimRow + 1, Col: 0})
	other := m.Mapper().Unmap(Coord{Bank: 0, Row: 3000, Col: 0})
	victimPA := m.Mapper().Unmap(Coord{Bank: 0, Row: victimRow, Col: 0})

	var now sim.Cycles
	hammerN := func(n int) {
		for i := 0; i < n; i++ {
			m.Access(agg, false, now)
			now += 200
			m.Access(other, false, now)
			now += 200
		}
	}
	hammerN(900)
	if m.FlipCount() != 0 {
		t.Fatal("flipped before threshold")
	}
	if u := m.VictimUnits(0, victimRow, now); u != 900 {
		t.Fatalf("accumulator = %g, want 900", u)
	}
	// Selective refresh: a read of the victim row restores its charge.
	m.Access(victimPA, false, now)
	now += 200
	if u := m.VictimUnits(0, victimRow, now); u != 0 {
		t.Fatalf("accumulator after refresh read = %g, want 0", u)
	}
	hammerN(900)
	if m.FlipCount() != 0 {
		t.Error("flipped despite selective refresh resetting the accumulator")
	}
	hammerN(200)
	if m.FlipCount() == 0 {
		t.Error("eventually the row should flip again once re-hammered past threshold")
	}
}

// TestDisturbingOneRowAllocatesLittle bounds what the first disturbance
// of a bank costs: the page table and the pages of the activated row's
// neighbours, not a victim record for every row of the bank (32,768 rows of
// 32 B, 1 MB, on the default geometry).
func TestDisturbingOneRowAllocatesLittle(t *testing.T) {
	m, err := New(DefaultConfig(sim.DefaultFreq))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.RefreshRow(3, 1000, 5000)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Errorf("disturbing one row allocated %d bytes, want at most %d", got, 16<<10)
	}
	if u := m.VictimUnits(3, 1001, 5000); u != 1 {
		t.Errorf("neighbour accumulator = %g, want 1", u)
	}
}

func TestRefreshRowEquivalentToRead(t *testing.T) {
	cfg := testConfig()
	m := mustModule(t, cfg)
	const victimRow = 300
	m.PlantWeakRow(0, victimRow, 1000)
	agg := m.Mapper().Unmap(Coord{Bank: 0, Row: victimRow + 1, Col: 0})
	other := m.Mapper().Unmap(Coord{Bank: 0, Row: 3000, Col: 0})
	var now sim.Cycles
	for i := 0; i < 500; i++ {
		m.Access(agg, false, now)
		now += 200
		m.Access(other, false, now)
		now += 200
	}
	m.RefreshRow(0, victimRow, now)
	if u := m.VictimUnits(0, victimRow, now); u != 0 {
		t.Errorf("RefreshRow left %g units", u)
	}
	// Out-of-range rows are ignored.
	m.RefreshRow(0, -1, now)
	m.RefreshRow(0, cfg.Geometry.RowsPerBank, now)
	m.RefreshRow(-1, 0, now)
}

func TestPeriodicRefreshPreventsSlowHammer(t *testing.T) {
	// Hammering slower than the refresh sweep can restore charge must not
	// flip: spread the same number of activations over two refresh windows.
	cfg := testConfig()
	m := mustModule(t, cfg)
	const victimRow = 64 // bin 16 of 1024 (4096 rows / 4 per REF... computed lazily)
	m.PlantWeakRow(0, victimRow, 1000)
	agg := m.Mapper().Unmap(Coord{Bank: 0, Row: victimRow + 1, Col: 0})
	other := m.Mapper().Unmap(Coord{Bank: 0, Row: 3000, Col: 0})

	period := cfg.Timing.RefreshPeriod
	step := period * 2 / 1500 // 1500 activations across 2 full periods
	var now sim.Cycles
	for i := 0; i < 1500; i++ {
		m.Access(agg, false, now)
		m.Access(other, false, now+step/2)
		now += step
	}
	if m.FlipCount() != 0 {
		t.Errorf("slow hammering flipped %d bits despite refresh sweep", m.FlipCount())
	}
}

func TestFastHammerBeatsRefresh(t *testing.T) {
	// The same 1500 activations packed inside one refresh window DO flip.
	cfg := testConfig()
	m := mustModule(t, cfg)
	const victimRow = 64
	m.PlantWeakRow(0, victimRow, 1000)
	agg := m.Mapper().Unmap(Coord{Bank: 0, Row: victimRow + 1, Col: 0})
	other := m.Mapper().Unmap(Coord{Bank: 0, Row: 3000, Col: 0})
	var now sim.Cycles = 1 // just after the sweep origin
	for i := 0; i < 1500; i++ {
		m.Access(agg, false, now)
		now += 200
		m.Access(other, false, now)
		now += 200
	}
	if m.FlipCount() == 0 {
		t.Error("fast hammering within one refresh window should flip")
	}
}

func TestWeakRowsDeterministicAndSorted(t *testing.T) {
	cfg := testConfig()
	m1 := mustModule(t, cfg)
	m2 := mustModule(t, cfg)
	a := m1.WeakRows(3, cfg.Disturb.MinFlipUnits*1.5, 10)
	b := m2.WeakRows(3, cfg.Disturb.MinFlipUnits*1.5, 10)
	if len(a) == 0 {
		t.Fatal("no weak rows found; vulnerable fraction too small?")
	}
	if len(a) != len(b) {
		t.Fatal("weak row scan not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("weak row scan not deterministic")
		}
	}
	// Sorted weakest-first.
	prev := -1.0
	for _, row := range a {
		thr, ok := m1.RowThreshold(3, row)
		if !ok {
			t.Fatalf("row %d reported weak but has no threshold", row)
		}
		if prev > 0 && thr < prev {
			t.Fatal("weak rows not sorted by threshold")
		}
		prev = thr
	}
}

func TestWeakestRowNearMinimum(t *testing.T) {
	cfg := DefaultConfig(sim.DefaultFreq) // full 32768-row banks
	m := mustModule(t, cfg)
	rows := m.WeakRows(0, cfg.Disturb.MinFlipUnits*1.01, 1)
	if len(rows) == 0 {
		t.Fatal("no row within 1% of the minimum threshold in a full bank")
	}
	thr, _ := m.RowThreshold(0, rows[0])
	if thr < cfg.Disturb.MinFlipUnits {
		t.Errorf("threshold %g below configured minimum %g", thr, cfg.Disturb.MinFlipUnits)
	}
}

func TestActivateHook(t *testing.T) {
	m := mustModule(t, testConfig())
	var got []Coord
	m.OnActivate(func(c Coord, now sim.Cycles) { got = append(got, c) }, nil)
	a := m.Mapper().Unmap(Coord{Bank: 1, Row: 7, Col: 0})
	m.Access(a, false, 100)
	m.Access(a, false, 200) // row hit: no activation
	if len(got) != 1 || got[0].Row != 7 || got[0].Bank != 1 {
		t.Errorf("hook saw %v", got)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Disturb.MinFlipUnits = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative MinFlipUnits accepted")
	}
	cfg = testConfig()
	cfg.Timing.RowHit = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero RowHit accepted")
	}
	cfg = testConfig()
	cfg.Geometry.Ranks = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero ranks accepted")
	}
}

func TestPlantWeakRowRejectsBadConfig(t *testing.T) {
	m := mustModule(t, testConfig())
	g := m.Config().Geometry
	for _, tc := range []struct {
		name      string
		bank, row int
		units     float64
	}{
		{"zero threshold", 0, 0, 0},
		{"negative threshold", 0, 0, -5},
		{"bank out of range", g.Banks(), 0, 1000},
		{"negative bank", -1, 0, 1000},
		{"row out of range", 0, g.RowsPerBank, 1000},
		{"negative row", 0, -1, 1000},
	} {
		if err := m.PlantWeakRow(tc.bank, tc.row, tc.units); err == nil {
			t.Errorf("%s: PlantWeakRow(%d, %d, %g) accepted", tc.name, tc.bank, tc.row, tc.units)
		}
	}
	if err := m.PlantWeakRow(0, 0, 1000); err != nil {
		t.Errorf("valid plant rejected: %v", err)
	}
	if thr, ok := m.RowThreshold(0, 0); !ok || thr != 1000 {
		t.Errorf("planted threshold not visible: got %g, %v", thr, ok)
	}
}

func TestRefreshScaledRejectsBadScale(t *testing.T) {
	tm := DefaultTiming(sim.DefaultFreq)
	for _, scale := range []int{0, -1, -100} {
		if _, err := tm.RefreshScaled(scale); err == nil {
			t.Errorf("RefreshScaled(%d) accepted", scale)
		}
	}
	double, err := tm.RefreshScaled(2)
	if err != nil {
		t.Fatalf("RefreshScaled(2): %v", err)
	}
	if double.RefreshPeriod != tm.RefreshPeriod/2 {
		t.Error("RefreshScaled(2) did not halve the period")
	}
}

func TestThresholdDistributionProperties(t *testing.T) {
	cfg := DefaultDisturbConfig()
	vulnerable := 0
	const n = 20000
	for row := 0; row < n; row++ {
		thr, ok := cfg.threshold(0, row)
		if !ok {
			continue
		}
		vulnerable++
		if thr < cfg.MinFlipUnits {
			t.Fatalf("threshold %g below minimum", thr)
		}
		if thr > cfg.MinFlipUnits*(1+cfg.ThresholdSpread) {
			t.Fatalf("threshold %g above maximum", thr)
		}
	}
	frac := float64(vulnerable) / n
	if frac < cfg.VulnerableFraction*0.8 || frac > cfg.VulnerableFraction*1.2 {
		t.Errorf("vulnerable fraction %g, want ~%g", frac, cfg.VulnerableFraction)
	}
}

func TestDisturbQuickNoFlipBelowThreshold(t *testing.T) {
	// Property: hammering strictly fewer than threshold units never flips.
	err := quick.Check(func(seed uint64, n uint16) bool {
		cfg := testConfig()
		cfg.Disturb.Seed = seed
		m, err := New(cfg)
		if err != nil {
			return false
		}
		thr := 500 + float64(n%1000)
		m.PlantWeakRow(0, 500, thr)
		agg := m.Mapper().Unmap(Coord{Bank: 0, Row: 501, Col: 0})
		other := m.Mapper().Unmap(Coord{Bank: 0, Row: 3500, Col: 0})
		var now sim.Cycles = 1
		count := int(thr) - 1
		for i := 0; i < count; i++ {
			m.Access(agg, false, now)
			now += 100
			m.Access(other, false, now)
			now += 100
		}
		// Might flip other procedurally-weak rows near 3500/501? Those have
		// thresholds >= MinFlipUnits (400K), unreachable here. So only our
		// planted row could flip — and it must not.
		return m.FlipCount() == 0
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

func TestRefreshScaledRejectsNonPositive(t *testing.T) {
	tm := DefaultTiming(sim.DefaultFreq)
	for _, scale := range []int{0, -1} {
		if _, err := tm.RefreshScaled(scale); err == nil {
			t.Errorf("RefreshScaled(%d) accepted", scale)
		}
	}
}

func TestNewLinearMapperRejectsNonPowerOfTwo(t *testing.T) {
	g := DefaultGeometry()
	g.RowsPerBank = 3000 // not a power of two
	if _, err := NewLinearMapper(g, false); err == nil {
		t.Error("non-power-of-two geometry accepted")
	}
	if _, err := NewLinearMapper(Geometry{}, false); err == nil {
		t.Error("zero geometry accepted")
	}
}
