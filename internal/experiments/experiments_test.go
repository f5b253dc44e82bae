package experiments

import (
	"strings"
	"testing"
	"time"
)

var quick = Config{Quick: true}

func TestTable1ShapeHolds(t *testing.T) {
	rows, err := Table1(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	single, double, free := rows[0], rows[1], rows[2]
	for _, r := range rows {
		if !r.Flipped {
			t.Fatalf("%s never flipped", r.Technique)
		}
	}
	// The paper's shape: double-sided needs ~half the accesses of
	// single-sided; CLFLUSH-free needs the same accesses as double-sided
	// but takes longer; everything flips within one refresh-ish horizon.
	if double.MinAccesses >= single.MinAccesses*3/4 {
		t.Errorf("double-sided %d vs single-sided %d accesses; want ~half",
			double.MinAccesses, single.MinAccesses)
	}
	if free.MinAccesses > double.MinAccesses*5/4 || free.MinAccesses < double.MinAccesses*3/4 {
		t.Errorf("CLFLUSH-free accesses %d vs double-sided %d; want similar",
			free.MinAccesses, double.MinAccesses)
	}
	if !(double.TimeToFlip < free.TimeToFlip && free.TimeToFlip < 80*time.Millisecond) {
		t.Errorf("flip times: double %v, free %v", double.TimeToFlip, free.TimeToFlip)
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "CLFLUSH") || !strings.Contains(out, "ms") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFigure1Properties(t *testing.T) {
	r, err := Figure1(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !r.AggressorAlwaysMisses {
		t.Error("aggressor does not miss every iteration")
	}
	if r.FreeMissesPerIter < 2 || r.FreeMissesPerIter > 3 {
		t.Errorf("steady-state misses = %d", r.FreeMissesPerIter)
	}
	if r.FreeSeqLen < 13 {
		t.Errorf("sequence too short: %d", r.FreeSeqLen)
	}
}

func TestSection21Bypass(t *testing.T) {
	r, err := Section21(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Flipped {
		t.Fatal("no flip under 32ms refresh")
	}
	if r.TimeToFlip >= 32*time.Millisecond {
		t.Errorf("flip at %v, must beat the 32ms window", r.TimeToFlip)
	}
}

func TestSection22RanksBitPLRUFirst(t *testing.T) {
	scores, err := Section22(quick)
	if err != nil {
		t.Fatal(err)
	}
	if scores[0].Policy != "bit-plru" {
		t.Errorf("ranking: %v", scores)
	}
	out := RenderSection22(scores)
	if !strings.Contains(out, "bit-plru") {
		t.Errorf("render:\n%s", out)
	}
}

func TestTable3ZeroFlips(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	rows, err := Table3(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TotalBitFlips != 0 {
			t.Errorf("%s/%s: %d flips", r.Benchmark, r.Load, r.TotalBitFlips)
		}
		if r.Detections == 0 {
			t.Errorf("%s/%s: never detected", r.Benchmark, r.Load)
		}
		if r.AvgTimeToDetect <= 0 || r.AvgTimeToDetect > 64*time.Millisecond {
			t.Errorf("%s/%s: detect latency %v", r.Benchmark, r.Load, r.AvgTimeToDetect)
		}
	}
	out := RenderTable3(rows)
	if !strings.Contains(out, "Heavy") || !strings.Contains(out, "Light") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFigure3OverheadOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	rows, err := Figure3(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Figure3Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
		if r.ANVIL < 0.999 || r.ANVIL > 1.10 {
			t.Errorf("%s ANVIL overhead out of band: %.4f", r.Benchmark, r.ANVIL)
		}
	}
	// Memory-intensive pays more than compute-bound under both protections.
	if byName["libquantum"].ANVIL <= byName["sjeng"].ANVIL {
		t.Error("libquantum should pay more ANVIL overhead than sjeng")
	}
	if byName["libquantum"].DoubleRefresh <= byName["sjeng"].DoubleRefresh {
		t.Error("libquantum should pay more refresh overhead than sjeng")
	}
	avg, peak := Figure3Summary(rows)
	if avg <= 1.0 || avg > 1.05 {
		t.Errorf("mean ANVIL overhead %.4f out of the paper's band (~1%%)", avg)
	}
	if peak > 1.06 {
		t.Errorf("peak ANVIL overhead %.4f too large", peak)
	}
	if out := RenderFigure3(rows); !strings.Contains(out, "mean") {
		t.Errorf("render:\n%s", out)
	}
}

// TestSection45Shape checks §4.5's argument on DRAM that flips at 110K
// accesses: ANVIL-baseline lets both attacks flip, and the retuned
// configurations (heavy against the fast attack, light against the slow
// one) detect them and keep every cell intact.
func TestSection45Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	rows, err := Section45(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Config == "ANVIL-baseline" {
			if r.BitFlips == 0 {
				t.Errorf("%s vs %s: no flips; baseline should fail on weaker DRAM", r.Scenario, r.Config)
			}
			continue
		}
		if r.BitFlips != 0 {
			t.Errorf("%s vs %s: %d flips", r.Scenario, r.Config, r.BitFlips)
		}
		if r.Detections == 0 {
			t.Errorf("%s vs %s: never detected", r.Scenario, r.Config)
		}
	}
	if out := RenderSection45(rows); !strings.Contains(out, "ANVIL-heavy") {
		t.Errorf("render:\n%s", out)
	}
}

func TestDefenseComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	rows, err := Defenses(quick)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].BitFlips == 0 {
		t.Error("unprotected run must flip")
	}
	for _, r := range rows[2:] { // every defense beyond 2x refresh
		if r.BitFlips != 0 {
			t.Errorf("%s allowed %d flips", r.Defense, r.BitFlips)
		}
	}
	if out := RenderDefenses(rows); !strings.Contains(out, "PARA") {
		t.Errorf("render:\n%s", out)
	}
}

func TestConfigScaling(t *testing.T) {
	full := Config{}
	if full.ScaleDur(4*time.Second) != 4*time.Second {
		t.Error("full duration scaled")
	}
	if quick.ScaleDur(4*time.Second) != time.Second {
		t.Error("quick duration not scaled")
	}
	if quick.ScaleOps(400) != 100 {
		t.Error("quick ops not scaled")
	}
}

func TestTable1SweepAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	rows, err := Table1Sweep(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Flips != r.Seeds {
			t.Errorf("%s: %d/%d replicates flipped", r.Technique, r.Flips, r.Seeds)
		}
		if r.MinAccessesMin > r.MinAccessesMed {
			t.Errorf("%s: min %d > median %d", r.Technique, r.MinAccessesMin, r.MinAccessesMed)
		}
		if r.TimeToFlipMin > r.TimeToFlipMedian {
			t.Errorf("%s: min %v > median %v", r.Technique, r.TimeToFlipMin, r.TimeToFlipMedian)
		}
	}
	if out := RenderTable1Sweep(rows); !strings.Contains(out, "multi-seed") {
		t.Errorf("render:\n%s", out)
	}
}
