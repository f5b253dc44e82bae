package defense

import (
	"testing"
	"time"

	"repro/internal/dram"
	"repro/internal/machine"
	"repro/internal/sim"
)

func TestECCValidation(t *testing.T) {
	if _, err := NewECC(0, 64); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewECC(100, 0); err == nil {
		t.Error("zero word size accepted")
	}
}

// TestECCCorrectsSingleBitFlips: a victim row with one weak cell flips, but
// the scrubber repairs it (no machine check) — the optimistic case.
func TestECCCorrectsSingleBitFlips(t *testing.T) {
	d, err := NewECC(sim.DefaultFreq.Cycles(8*time.Millisecond), 64)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := hammeredMachine(t, d) // plants a single 400K-unit cell
	runFor(t, m, 64*time.Millisecond)
	d.Scrub(m.Freq.Cycles(64 * time.Millisecond))
	if m.Mem.DRAM.FlipCount() == 0 {
		t.Fatal("no flips; ECC test vacuous")
	}
	if d.Corrected() == 0 {
		t.Error("scrubber corrected nothing")
	}
	if d.Uncorrectable() != 0 {
		t.Errorf("single-cell flips reported uncorrectable: %d", d.Uncorrectable())
	}
}

// TestECCFailsOnMultiBitWords reproduces the paper's §1.2 argument: two
// weak cells in the same 64-bit word flip within one scrub interval, which
// SECDED can detect but not correct.
func TestECCFailsOnMultiBitWords(t *testing.T) {
	d, err := NewECC(sim.DefaultFreq.Cycles(8*time.Millisecond), 64)
	if err != nil {
		t.Fatal(err)
	}
	m, v := hammeredMachine(t, d)
	// Two weak cells in word 0 of the victim row, close enough in
	// threshold to flip within the same scrub window.
	m.Mem.DRAM.PlantWeakCell(v.Bank, v.VictimRow, 400_000, 5)
	m.Mem.DRAM.PlantWeakCell(v.Bank, v.VictimRow, 402_000, 37)
	runFor(t, m, 64*time.Millisecond)
	d.Scrub(m.Freq.Cycles(64 * time.Millisecond))
	if d.Uncorrectable() == 0 {
		t.Errorf("two flips in one word were not reported uncorrectable (flips=%d corrected=%d)",
			m.Mem.DRAM.FlipCount(), d.Corrected())
	}
}

// TestMultiCellRowsFlipProgressively checks the extended disturbance model:
// a row with several planted cells flips them in threshold order.
func TestMultiCellRowsFlipProgressively(t *testing.T) {
	m, v := hammeredMachine(t, nil)
	m.Mem.DRAM.PlantWeakCell(v.Bank, v.VictimRow, 400_000, 5)
	m.Mem.DRAM.PlantWeakCell(v.Bank, v.VictimRow, 430_000, 700)
	runFor(t, m, 64*time.Millisecond)
	flips := m.Mem.DRAM.Flips()
	var bits []int
	for _, f := range flips {
		if f.Row == v.VictimRow {
			bits = append(bits, f.Bit)
		}
	}
	if len(bits) < 2 {
		t.Fatalf("expected at least two flips in the victim row, got %v", bits)
	}
	// Both explicit cells flip, weakest before strongest.
	idx := func(bit int) int {
		for i, b := range bits {
			if b == bit {
				return i
			}
		}
		return -1
	}
	if idx(5) < 0 || idx(700) < 0 {
		t.Fatalf("planted cells missing from flips %v", bits)
	}
	if idx(5) > idx(700) {
		t.Errorf("flip order %v: bit 5 (400K) should precede bit 700 (430K)", bits)
	}
}

// eccStreamMachine builds a machine with no planted weak cells, the given
// transient-error rates injected into DRAM, and the scrubber attached, then
// runs a streaming workload so activations (and scrub passes) happen.
func eccStreamMachine(t *testing.T, d *ECC, correctable, uncorrectable float64) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Cores = 1
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.DRAM.InjectFaults(dram.FaultConfig{
		ECCCorrectableRate:   correctable,
		ECCUncorrectableRate: uncorrectable,
	}, sim.NewRand(21)); err != nil {
		t.Fatal(err)
	}
	d.Attach(m.Mem.DRAM)
	if _, err := m.Spawn(0, workloadStream()); err != nil {
		t.Fatal(err)
	}
	runFor(t, m, 20*time.Millisecond)
	if m.Mem.DRAM.FlipCount() != 0 {
		t.Fatal("streaming run produced hammer flips; transient test vacuous")
	}
	d.Scrub(m.Freq.Cycles(20 * time.Millisecond))
}

// TestECCCorrectsTransientSingles: injected single-bit transients are
// repaired by the scrubber, not escalated to machine checks.
func TestECCCorrectsTransientSingles(t *testing.T) {
	d, err := NewECC(sim.DefaultFreq.Cycles(2*time.Millisecond), 64)
	if err != nil {
		t.Fatal(err)
	}
	eccStreamMachine(t, d, 1e-4, 0)
	if d.Corrected() == 0 {
		t.Error("scrubber corrected no transient singles")
	}
	if d.Uncorrectable() != 0 {
		t.Errorf("isolated singles reported uncorrectable: %d", d.Uncorrectable())
	}
}

// TestECCFailsOnTransientDoubles: injected double-bit-per-word transients
// are uncorrectable — the §1.2 SECDED failure mode, now reachable without a
// hammering attack.
func TestECCFailsOnTransientDoubles(t *testing.T) {
	d, err := NewECC(sim.DefaultFreq.Cycles(2*time.Millisecond), 64)
	if err != nil {
		t.Fatal(err)
	}
	eccStreamMachine(t, d, 0, 1e-4)
	if d.Uncorrectable() == 0 {
		t.Errorf("transient doubles were not reported uncorrectable (corrected=%d)", d.Corrected())
	}
}

// The ECC window tests read two rows of one bank in turn, around a victim
// row with two weak cells in one word, on a one-rank module.
var (
	eccRowA, eccRowB = dram.Coord{Row: 100}, dram.Coord{Row: 102}
	eccVictim        = 101
)

func eccWindowConfig() dram.Config {
	cfg := dram.DefaultConfig(sim.DefaultFreq)
	cfg.Geometry = dram.Geometry{Ranks: 1, BanksPerRank: 8, RowsPerBank: 4096, RowBytes: 8192}
	return cfg
}

// eccWindowModule builds the module with the victim's two weak cells, which
// flip a few activations apart, and a scrubber of the given interval, and
// activates both rows early, so refs to them resolve.
func eccWindowModule(t *testing.T, interval sim.Cycles) (*dram.Module, *ECC) {
	t.Helper()
	m, err := dram.New(eccWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		units float64
		bit   int
	}{{300, 5}, {305, 37}} {
		if err := m.PlantWeakCell(0, eccVictim, c.units, c.bit); err != nil {
			t.Fatal(err)
		}
	}
	d, err := NewECC(interval, 64)
	if err != nil {
		t.Fatal(err)
	}
	d.Attach(m)
	for i := sim.Cycles(0); i < 4; i++ {
		m.AccessCoord(eccRowA, false, 1000+400*i)
		m.AccessCoord(eccRowB, false, 1200+400*i)
	}
	return m, d
}

// eccReadPairs reads row a then row b k times per request, from now, and
// returns the time the last read completes.
func eccReadPairs(m *dram.Module, now sim.Cycles, k int) sim.Cycles {
	for i := 0; i < k; i++ {
		for _, c := range []dram.Coord{eccRowA, eccRowB} {
			now += m.AccessCoord(c, false, now).Latency
		}
	}
	return now
}

// eccPairRefs is the run row a, row b through m's refs.
func eccPairRefs(t *testing.T, m *dram.Module) []dram.RefRead {
	t.Helper()
	var run []dram.RefRead
	for _, c := range []dram.Coord{eccRowA, eccRowB} {
		r, ok := m.Ref(m.Mapper().Unmap(c))
		if !ok {
			t.Fatalf("%+v: no ref", c)
		}
		run = append(run, dram.RefRead{Ref: r})
	}
	return run
}

// eccWindowStart is when the ECC window tests start reading: after the
// victim's sweep (epoch 101).
func eccWindowStart() sim.Cycles {
	cfg := eccWindowConfig()
	return 200*cfg.Timing.TREFI() + cfg.Timing.RFC + 20000
}

// eccFlips reads the pairs k times from eccWindowStart under a scrubber
// that never scrubs and returns the victim's two flips, failing unless they
// fall in one stall-free refresh window.
func eccFlips(t *testing.T, k int) []dram.BitFlip {
	t.Helper()
	timing := eccWindowConfig().Timing
	trefi := timing.TREFI()
	probe, _ := eccWindowModule(t, 1<<62)
	eccReadPairs(probe, eccWindowStart(), k)
	flips := probe.Flips()
	if len(flips) != 2 || flips[0].Time/trefi != flips[1].Time/trefi || flips[0].Time%trefi < timing.RFC {
		t.Fatalf("want two flips in one stall-free refresh window, got %+v", flips)
	}
	return flips
}

// checkScrubs fails unless the per-request twin's scrubber corrected both
// flips one at a time and the twin read through refs classified the same.
func checkScrubs(t *testing.T, dref, dthrough *ECC) {
	t.Helper()
	if dref.Corrected() != 2 || dref.Uncorrectable() != 0 {
		t.Fatalf("per-request reads: corrected %d, uncorrectable %d; want 2 and 0", dref.Corrected(), dref.Uncorrectable())
	}
	if dthrough.Corrected() != dref.Corrected() || dthrough.Uncorrectable() != dref.Uncorrectable() {
		t.Errorf("reads through refs: corrected %d, uncorrectable %d; per-request reads: %d and %d",
			dthrough.Corrected(), dthrough.Uncorrectable(), dref.Corrected(), dref.Uncorrectable())
	}
}

// TestECCWindowBoundsTheSteadyRepeat: the scrubber's idle window ends at its
// next scrub time, so a stretch of DRAM reads that the steady repeat
// applies through refs stops there, and the scrub classifies the same
// flips as under per-request reads. Two weak cells of one word flip a few
// activations apart, inside one stall-free refresh window, with the scrub
// due between them: scrubbed in between, each flip is corrected, while a
// scrub late enough to see both would report the word uncorrectable.
func TestECCWindowBoundsTheSteadyRepeat(t *testing.T) {
	const k = 200                          // repetitions of the run a, b
	interval := eccFlips(t, k)[0].Time + 1 // the first scrub falls between the flips

	ref, dref := eccWindowModule(t, interval)
	end := eccReadPairs(ref, eccWindowStart(), k)
	dref.Scrub(end)
	through, dthrough := eccWindowModule(t, interval)
	rr := through.ReadRefs(eccPairRefs(t, through), eccWindowStart(), 0, k)
	dthrough.Scrub(end)
	if rr.Steady == 0 {
		t.Fatal("the steady repeat applied no read")
	}
	checkScrubs(t, dref, dthrough)
}

// TestECCWindowHasALowerEnd: the scrubber's idle window starts at its last
// scrub, so the hook scrubs at an activation before it, and the steady
// repeat must not apply such a read without the hook. Both twins read the
// pairs per request into the flips' refresh window, past its REF and before
// the first flip, so the steady repeat can take the next read. Then a Scrub
// at a time past every read moves the last scrub beyond them, and the
// remaining reads go per request on one twin and through refs on the other.
// On both, the next activation scrubs, which moves the window back around
// the reads, and the flips are corrected one at a time; a window without
// its lower end would let one steady stretch make both flips unscrubbed.
func TestECCWindowHasALowerEnd(t *testing.T) {
	const k = 200
	flips := eccFlips(t, k)
	interval := flips[0].Time + 1
	timing := eccWindowConfig().Timing
	warmEnd := flips[0].Time/timing.TREFI()*timing.TREFI() + timing.RFC

	ref, dref := eccWindowModule(t, interval)
	through, dthrough := eccWindowModule(t, interval)
	// The last pass of the warm-up starts past the REF, so its reads note
	// the window's stall-free stretch.
	now, reps := eccWindowStart(), 0
	for began := now; began < warmEnd; reps++ {
		began = now
		eccReadPairs(through, now, 1)
		now = eccReadPairs(ref, now, 1)
	}
	if now >= flips[0].Time {
		t.Fatalf("the warm-up ends at %d, not before the first flip at %d", now, flips[0].Time)
	}
	// The remaining reads take well under an interval.
	dref.Scrub(now + 2*interval)
	dthrough.Scrub(now + 2*interval)

	end := eccReadPairs(ref, now, k-reps)
	dref.Scrub(end)
	rr := through.ReadRefs(eccPairRefs(t, through), now, 0, k-reps)
	dthrough.Scrub(end)
	if rr.Steady == 0 {
		t.Fatal("the steady repeat applied no read")
	}
	checkScrubs(t, dref, dthrough)
}
