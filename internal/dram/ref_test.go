package dram

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestSteadyRepeatUnderFaults reads a run through ReadRefs on a module with
// injected refresh skips and transient ECC errors, and makes the same reads
// through AccessCoord on its twin. In testConfig every row is its own
// refresh bin, and every REF slot is skipped, so each row's refresh walk
// notes a slot no other row's does. The run's first read is live and the
// steady repeat applies the rest within one refresh epoch, so only the
// stretch notes the slots of row b's neighbours, and it makes the transient
// draws of activations of both rows, with a row hit between them. The twins
// must end the same: skipped-slot notes, transient flips (row, bit, time)
// and everything else readRefState compares.
func TestSteadyRepeatUnderFaults(t *testing.T) {
	cfg := testConfig()
	var ms [2]*Module // the reference, and the twin reading through refs
	for i := range ms {
		ms[i] = mustModule(t, cfg)
		fc := FaultConfig{RefreshSkipRate: 1, ECCCorrectableRate: 0.05, ECCUncorrectableRate: 0.02}
		if err := ms[i].InjectFaults(fc, sim.NewRand(3)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := Coord{Bank: 0, Row: 100}, Coord{Bank: 0, Row: 200}
	// Alternate the rows in the first epoch, before either row's first
	// sweep slot, where a refresh walk notes nothing: this allocates the
	// records the refs need and caches the neighbours' thresholds.
	now := sim.Cycles(2000)
	for j := 0; j < 4; j++ {
		for _, c := range []Coord{a, b} {
			for _, m := range ms {
				m.AccessCoord(c, false, now)
			}
			now += 200
		}
	}
	if n := ms[0].FaultStats().SkippedRefreshes; n != 0 {
		t.Fatalf("the warm-up noted %d skipped slots, want none", n)
	}

	var run []RefRead
	for _, c := range []Coord{a, a, b} {
		ref, ok := ms[1].Ref(ms[1].mapper.Unmap(c))
		if !ok {
			t.Fatalf("%+v: no ref", c)
		}
		run = append(run, RefRead{Ref: ref, Gap: 10})
	}
	const tail, k = 20, 16
	start := 300*ms[0].trefi + 2*cfg.Timing.RFC // past both rows' first sweep slots
	rr := ms[1].ReadRefs(run, start, tail, k, math.MaxUint64)
	now = start
	var sum, last sim.Cycles
	for rep := 0; rep < k; rep++ {
		for i := range run {
			now += run[i].Gap
			last = ms[0].AccessCoord(run[i].Ref.c, false, now).Latency
			now += last
			sum += last
		}
		now += tail
	}
	if rr.Latency != sum || rr.Last != last {
		t.Errorf("ReadRefs latency %d, last %d; AccessCoord %d, last %d", rr.Latency, rr.Last, sum, last)
	}
	if want := k*len(run) - 1; rr.Steady != want {
		t.Errorf("the steady repeat applied %d reads, want all but the first, %d", rr.Steady, want)
	}
	fs := ms[0].FaultStats()
	if fs.SkippedRefreshes != 4 || fs.TransientSingle+fs.TransientDouble == 0 {
		t.Errorf("reference fault stats %+v: want the 4 slots of rows 99, 101, 199 and 201, and some transients", fs)
	}
	rows := []int{a.Row, b.Row}
	if d := readRefState(ms[0], []int{0}, rows, 0, 0).diff(readRefState(ms[1], []int{0}, rows, 0, 0)); d != "" {
		t.Fatalf("the modules differ (reference, then through refs):\n%s", d)
	}
}

// TestSteadyRepeatAfterAStall reads a run through ReadRefs whose first read
// arrives inside rank 0's REF and waits out its tRFC, and makes the same
// reads through AccessCoord on a twin. The stalled read notes the stall-free
// window that follows the REF, so the steady repeat applies every later
// read of the run, all inside that refresh epoch; memoising the window only
// after a read that did not stall would leave the second read live too.
// The rows' sweep slots lie past the epoch, so nothing else keeps a read
// live. The twins must end the same.
func TestSteadyRepeatAfterAStall(t *testing.T) {
	cfg := testConfig()
	var ms [2]*Module // the reference, and the twin reading through refs
	for i := range ms {
		ms[i] = mustModule(t, cfg)
	}
	a, b := Coord{Bank: 0, Row: 1000}, Coord{Bank: 0, Row: 2000}
	// Alternate the rows in the first epoch: this allocates the records the
	// refs need and caches the neighbours' thresholds.
	now := sim.Cycles(2000)
	for j := 0; j < 4; j++ {
		for _, c := range []Coord{a, b} {
			for _, m := range ms {
				m.AccessCoord(c, false, now)
			}
			now += 200
		}
	}

	var run []RefRead
	for _, c := range []Coord{a, b} {
		ref, ok := ms[1].Ref(ms[1].mapper.Unmap(c))
		if !ok {
			t.Fatalf("%+v: no ref", c)
		}
		run = append(run, RefRead{Ref: ref, Gap: 10})
	}
	const tail, k = 20, 16
	start := 300 * ms[0].trefi // rank 0's REF; the first read comes 10 cycles into it
	stalls := ms[0].Stats().RefreshStalls
	rr := ms[1].ReadRefs(run, start, tail, k, math.MaxUint64)
	now = start
	var sum, last sim.Cycles
	for rep := 0; rep < k; rep++ {
		for i := range run {
			now += run[i].Gap
			last = ms[0].AccessCoord(run[i].Ref.c, false, now).Latency
			now += last
			sum += last
		}
		now += tail
	}
	if n := ms[0].Stats().RefreshStalls - stalls; n != 1 {
		t.Fatalf("the reference's reads stalled %d times, want once", n)
	}
	if now >= start+ms[0].trefi {
		t.Fatalf("the reads end at %d, past their refresh epoch's end at %d", now, start+ms[0].trefi)
	}
	if rr.Reps != k || rr.Latency != sum || rr.Last != last {
		t.Errorf("ReadRefs made %d repetitions, latency %d, last %d; AccessCoord %d, %d, %d", rr.Reps, rr.Latency, rr.Last, k, sum, last)
	}
	if want := k*len(run) - 1; rr.Steady != want {
		t.Errorf("the steady repeat applied %d reads, want all but the first, %d", rr.Steady, want)
	}
	rows := []int{a.Row, b.Row}
	if d := readRefState(ms[0], []int{0}, rows, 0, 0).diff(readRefState(ms[1], []int{0}, rows, 0, 0)); d != "" {
		t.Fatalf("the modules differ (reference, then through refs):\n%s", d)
	}
}
