package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// TestAccumulatorNeverExceedsActivations: the disturbance units deposited
// into any victim can never exceed (1 + bonus) per neighbouring activation.
func TestAccumulatorNeverExceedsActivations(t *testing.T) {
	err := quick.Check(func(rows []uint8) bool {
		cfg := testConfig()
		m, err := New(cfg)
		if err != nil {
			return false
		}
		acts := 0
		var now sim.Cycles
		for _, r := range rows {
			row := int(r)%64 + 100
			m.Access(m.Mapper().Unmap(Coord{Bank: 0, Row: row, Col: 0}), false, now)
			now += 200
			acts++
			// Probe every victim near the hammered range.
			for v := 99; v <= 165; v++ {
				u := m.VictimUnits(0, v, now)
				if u > float64(acts)*(1+cfg.Disturb.AlternationBonus)+1e-9 {
					t.Logf("victim %d has %g units after %d activations", v, u, acts)
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

// TestSelectiveRefreshAlwaysResets: for arbitrary hammer prefixes, reading
// the victim always zeroes its accumulator.
func TestSelectiveRefreshAlwaysResets(t *testing.T) {
	err := quick.Check(func(n uint8) bool {
		cfg := testConfig()
		m, err := New(cfg)
		if err != nil {
			return false
		}
		const victim = 500
		agg := m.Mapper().Unmap(Coord{Bank: 1, Row: victim + 1, Col: 0})
		other := m.Mapper().Unmap(Coord{Bank: 1, Row: 3000, Col: 0})
		var now sim.Cycles = 1
		for i := 0; i < int(n); i++ {
			m.Access(agg, false, now)
			now += 150
			m.Access(other, false, now)
			now += 150
		}
		m.Access(m.Mapper().Unmap(Coord{Bank: 1, Row: victim, Col: 0}), false, now)
		return m.VictimUnits(1, victim, now) == 0
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

// TestRefreshSweepMonotonic: lastScheduledRefresh never decreases with time
// and never exceeds now.
func TestRefreshSweepMonotonic(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []int{0, 1, 100, cfg.Geometry.RowsPerBank - 1} {
		var prev sim.Cycles
		for now := sim.Cycles(0); now < cfg.Timing.RefreshPeriod*3; now += cfg.Timing.TREFI() / 3 {
			r := m.lastScheduledRefresh(row, now, false)
			if r > now {
				t.Fatalf("row %d: refresh at %d in the future of %d", row, r, now)
			}
			if r < prev {
				t.Fatalf("row %d: refresh time went backwards: %d -> %d", row, prev, r)
			}
			prev = r
		}
		// Across three periods the row must have been refreshed at least twice.
		if prev == 0 {
			t.Fatalf("row %d never refreshed in three periods", row)
		}
	}
}

// TestEveryRowRefreshedOncePerPeriod: within any full refresh period, every
// row's scheduled refresh advances by exactly one period.
func TestEveryRowRefreshedOncePerPeriod(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The effective sweep period is tREFI * commands (tREFI truncates to
	// whole cycles, so it may undershoot RefreshPeriod by < one command).
	period := cfg.Timing.TREFI() * sim.Cycles(cfg.Timing.RefreshCommands)
	for row := 0; row < cfg.Geometry.RowsPerBank; row += 97 {
		r1 := m.lastScheduledRefresh(row, period*2, false)
		r2 := m.lastScheduledRefresh(row, period*3, false)
		if r2-r1 != period {
			t.Fatalf("row %d: refresh advanced by %d, want %d", row, r2-r1, period)
		}
	}
}

// TestDeterministicFlips: identical machines and access sequences flip the
// same bits at the same times.
func TestDeterministicFlips(t *testing.T) {
	run := func() []BitFlip {
		cfg := testConfig()
		m, _ := New(cfg)
		m.PlantWeakRow(2, 200, 900)
		lo := m.Mapper().Unmap(Coord{Bank: 2, Row: 199, Col: 0})
		hi := m.Mapper().Unmap(Coord{Bank: 2, Row: 201, Col: 0})
		var now sim.Cycles
		for i := 0; i < 600; i++ {
			m.Access(lo, false, now)
			now += 160
			m.Access(hi, false, now)
			now += 160
		}
		return m.Flips()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no flips")
	}
	if len(a) != len(b) {
		t.Fatalf("flip counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flip %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPlantWeakCellValidation exercises the multi-cell API's guards.
func TestPlantWeakCellValidation(t *testing.T) {
	m := mustModule(t, testConfig())
	for _, f := range []func() error{
		func() error { return m.PlantWeakCell(0, 0, 0, 5) },
		func() error { return m.PlantWeakCell(0, 0, 100, -1) },
		func() error { return m.PlantWeakCell(0, 0, 100, m.Config().Geometry.RowBytes*8) },
		func() error { return m.PlantWeakCell(-1, 0, 100, 5) },
		func() error { return m.PlantWeakCell(0, m.Config().Geometry.RowsPerBank, 100, 5) },
	} {
		if f() == nil {
			t.Error("bad PlantWeakCell accepted")
		}
	}
	if err := m.PlantWeakCell(0, 0, 100, 5); err != nil {
		t.Errorf("valid PlantWeakCell rejected: %v", err)
	}
}

// TestProceduralMultiCellRows: with MaxWeakCellsPerRow > 1 some rows carry
// several cells with ascending thresholds.
func TestProceduralMultiCellRows(t *testing.T) {
	cfg := testConfig()
	cfg.Disturb.MaxWeakCellsPerRow = 4
	multi := 0
	for row := 0; row < 4096; row++ {
		cells := cfg.Disturb.cells(0, row, cfg.Geometry.RowBytes*8)
		if len(cells) > 1 {
			multi++
			for k := 1; k < len(cells); k++ {
				if cells[k].threshold <= cells[k-1].threshold {
					t.Fatalf("row %d: cell thresholds not ascending: %+v", row, cells)
				}
			}
		}
		if len(cells) > 4 {
			t.Fatalf("row %d has %d cells, cap is 4", row, len(cells))
		}
	}
	if multi == 0 {
		t.Error("no multi-cell rows generated")
	}
}

func TestXORMapperRoundTrip(t *testing.T) {
	g := DefaultGeometry()
	m, err := NewXORMapper(g, SandyBridgeMasks(g))
	if err != nil {
		t.Fatal(err)
	}
	err = quick.Check(func(pa uint64) bool {
		pa %= g.Size()
		c := m.Map(pa)
		back := m.Unmap(c)
		return m.Map(back) == c && back == pa
	}, &quick.Config{MaxCount: 3000})
	if err != nil {
		t.Error(err)
	}
}

func TestXORMapperSpreadsRowsAcrossBanks(t *testing.T) {
	g := DefaultGeometry()
	m, err := NewXORMapper(g, SandyBridgeMasks(g))
	if err != nil {
		t.Fatal(err)
	}
	lin := mustMapper(t, g, false)
	// Same plain address, consecutive rows: the XOR map should move it
	// across banks where the plain map keeps the bank fixed.
	banksXOR := map[int]bool{}
	banksLin := map[int]bool{}
	for row := 0; row < 8; row++ {
		pa := lin.Unmap(Coord{Bank: 0, Row: row, Col: 0})
		banksXOR[m.Map(pa).Bank] = true
		banksLin[lin.Map(pa).Bank] = true
	}
	if len(banksLin) != 1 {
		t.Fatalf("linear map moved banks: %v", banksLin)
	}
	if len(banksXOR) < 4 {
		t.Errorf("XOR map spread %d banks over 8 rows, want >= 4", len(banksXOR))
	}
}

func TestXORMapperValidation(t *testing.T) {
	g := DefaultGeometry()
	if _, err := NewXORMapper(g, nil); err == nil {
		t.Error("missing masks accepted")
	}
	if _, err := NewXORMapper(g, []uint64{1, 2}); err == nil {
		t.Error("wrong mask count accepted")
	}
	if _, err := NewXORMapper(g, []uint64{1, 2, 0}); err == nil {
		t.Error("zero mask accepted")
	}
}

func TestModuleWithXORMapper(t *testing.T) {
	cfg := testConfig()
	var err error
	cfg.Mapper, err = NewXORMapper(cfg.Geometry, SandyBridgeMasks(cfg.Geometry))
	if err != nil {
		t.Fatal(err)
	}
	m := mustModule(t, cfg)
	m.PlantWeakRow(2, 300, 500)
	lo := m.Mapper().Unmap(Coord{Bank: 2, Row: 299, Col: 0})
	hi := m.Mapper().Unmap(Coord{Bank: 2, Row: 301, Col: 0})
	var now sim.Cycles
	for i := 0; i < 400 && m.FlipCount() == 0; i++ {
		m.Access(lo, false, now)
		now += 160
		m.Access(hi, false, now)
		now += 160
	}
	if m.FlipCount() == 0 {
		t.Error("hammering through the XOR map never flipped; Unmap broken?")
	}
}
