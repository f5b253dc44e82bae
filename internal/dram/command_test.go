package dram

import (
	"testing"

	"repro/internal/sim"
)

func detailedModule(t *testing.T) *Module {
	t.Helper()
	cfg := testConfig()
	cfg.Detailed = Detailed(sim.DefaultFreq)
	return mustModule(t, cfg)
}

func TestDetailedTimingValidate(t *testing.T) {
	good := Detailed(sim.DefaultFreq)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	var nilT *DetailedTiming
	if err := nilT.Validate(); err != nil {
		t.Error("nil detailed timing should validate")
	}
	bad := Detailed(sim.DefaultFreq)
	bad.TRC = bad.TRAS // < tRAS + tRP
	if err := bad.Validate(); err == nil {
		t.Error("tRC < tRAS+tRP accepted")
	}
	bad2 := &DetailedTiming{}
	if err := bad2.Validate(); err == nil {
		t.Error("zeroed detailed timing accepted")
	}
}

func TestDetailedRowHitFasterThanConflict(t *testing.T) {
	m := detailedModule(t)
	a := m.Mapper().Unmap(Coord{Bank: 0, Row: 10, Col: 0})
	b := m.Mapper().Unmap(Coord{Bank: 0, Row: 20, Col: 0})
	now := sim.Cycles(10_000)
	first := m.Access(a, false, now)
	now += first.Latency + 1000
	hit := m.Access(a, false, now)
	now += hit.Latency + 1000
	conflict := m.Access(b, false, now)
	if !hit.RowHit || conflict.RowHit {
		t.Fatalf("classification wrong: %+v %+v", hit, conflict)
	}
	if hit.Latency >= conflict.Latency {
		t.Errorf("row hit (%d) not faster than conflict (%d)", hit.Latency, conflict.Latency)
	}
	// The conflict includes PRE + ACT + RCD + CL: at least tRP+tRCD+tCL.
	dt := m.Config().Detailed
	if min := dt.TRP + dt.TRCD + dt.TCL; conflict.Latency < min {
		t.Errorf("conflict latency %d below command minimum %d", conflict.Latency, min)
	}
}

// TestDetailedTRCBoundsHammerRate: back-to-back conflicting accesses to one
// bank cannot activate faster than tRC.
func TestDetailedTRCBoundsHammerRate(t *testing.T) {
	m := detailedModule(t)
	dt := m.Config().Detailed
	a := m.Mapper().Unmap(Coord{Bank: 0, Row: 10, Col: 0})
	b := m.Mapper().Unmap(Coord{Bank: 0, Row: 20, Col: 0})
	var now sim.Cycles = 10_000
	const n = 200
	start := now
	for i := 0; i < n; i++ {
		res := m.Access(a, false, now)
		now += res.Latency
		res = m.Access(b, false, now)
		now += res.Latency
	}
	perAct := float64(now-start) / float64(2*n)
	if perAct < float64(dt.TRC) {
		t.Errorf("average activation interval %.0f cycles beats tRC %d", perAct, dt.TRC)
	}
	// And it should not be wildly slower either (same bank: tRC is the
	// binding constraint, plus CL/bus).
	if perAct > float64(dt.TRC+dt.TCL+dt.TBus+dt.TRP) {
		t.Errorf("average activation interval %.0f cycles is unexpectedly slow", perAct)
	}
}

// TestDetailedTFAWLimitsBankParallelism: rapid ACTs spread across many
// banks of one rank are throttled to four per tFAW window.
func TestDetailedTFAWLimitsBankParallelism(t *testing.T) {
	cfg := testConfig()
	cfg.Detailed = Detailed(sim.DefaultFreq)
	// Make tFAW clearly binding over tRRD.
	cfg.Detailed.TFAW = cfg.Detailed.TRRD * 12
	m := mustModule(t, cfg)
	e := m.engine
	now := sim.Cycles(100_000)
	var acts []sim.Cycles
	for i := 0; i < 12; i++ {
		bank := i % 8 // all in rank 0
		e.access(bank, 0, false, false, now)
		acts = append(acts, e.banks[bank].lastAct)
	}
	// Within any tFAW window there must be at most 4 ACTs.
	for i := 4; i < len(acts); i++ {
		if acts[i]-acts[i-4] < cfg.Detailed.TFAW {
			t.Fatalf("ACTs %d and %d only %d cycles apart; tFAW=%d violated",
				i-4, i, acts[i]-acts[i-4], cfg.Detailed.TFAW)
		}
	}
}

// TestDetailedModeStillFlips: the command engine changes latencies, not the
// disturbance physics — hammering still flips, a bit slower.
func TestDetailedModeStillFlips(t *testing.T) {
	m := detailedModule(t)
	m.PlantWeakRow(0, 100, 2000)
	lo := m.Mapper().Unmap(Coord{Bank: 0, Row: 99, Col: 0})
	hi := m.Mapper().Unmap(Coord{Bank: 0, Row: 101, Col: 0})
	var now sim.Cycles = 1
	for i := 0; i < 1500 && m.FlipCount() == 0; i++ {
		r := m.Access(lo, false, now)
		now += r.Latency
		r = m.Access(hi, false, now)
		now += r.Latency
	}
	if m.FlipCount() == 0 {
		t.Error("no flip under detailed timing")
	}
}

// TestDetailedAgreesWithSimpleOnOrdering: both models preserve
// hit < closed < conflict ordering.
func TestDetailedAgreesWithSimpleOnOrdering(t *testing.T) {
	for _, detailed := range []bool{false, true} {
		cfg := testConfig()
		if detailed {
			cfg.Detailed = Detailed(sim.DefaultFreq)
		}
		m := mustModule(t, cfg)
		a := m.Mapper().Unmap(Coord{Bank: 3, Row: 7, Col: 0})
		b := m.Mapper().Unmap(Coord{Bank: 3, Row: 9, Col: 0})
		now := sim.Cycles(50_000)
		closed := m.Access(a, false, now)
		now += closed.Latency + 500
		hit := m.Access(a, false, now)
		now += hit.Latency + 500
		conflict := m.Access(b, false, now)
		if !(hit.Latency < closed.Latency && closed.Latency <= conflict.Latency) {
			t.Errorf("detailed=%v: ordering violated: hit=%d closed=%d conflict=%d",
				detailed, hit.Latency, closed.Latency, conflict.Latency)
		}
	}
}
