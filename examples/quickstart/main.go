// Quickstart: declare the paper's double-sided CLFLUSH rowhammer as a
// scenario.Spec, run it unprotected and then with ANVIL enabled, and watch
// the detector selectively refresh the victim — zero bit flips, while the
// unprotected run of the same attack flips in ~17 simulated milliseconds.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	fmt.Println("== run 1: unprotected machine ==")
	in := run(scenario.NoDefense)
	fmt.Printf("bit flips without ANVIL: %d\n\n", in.Machine.Mem.DRAM.FlipCount())

	fmt.Println("== run 2: same attack, ANVIL enabled ==")
	in = run(scenario.ANVILBaseline)
	m := in.Machine
	fmt.Printf("bit flips with ANVIL: %d\n", m.Mem.DRAM.FlipCount())
	st := in.Detector.Stats()
	fmt.Printf("detections: %d, selective refreshes: %d\n", len(st.Detections), st.Refreshes)
	if len(st.Detections) > 0 {
		fmt.Printf("first detection: %.1f ms after the attack started, aggressors %v\n",
			m.Freq.Millis(st.Detections[0].Time), st.Detections[0].Aggressors)
	}
}

func run(def scenario.DefenseKind) *scenario.Instance {
	// The paper's machine (2.6 GHz Sandy Bridge caches over 4 GB DDR3) with
	// the attack on core 0 and the victim row planted as weak as the paper's
	// module: it flips after 400K disturbance units (≈220K double-sided
	// accesses).
	in, err := scenario.Build(scenario.Spec{
		Attack:  &scenario.Attack{Kind: scenario.DoubleSidedFlush},
		Defense: def,
	})
	if err != nil {
		log.Fatal(err)
	}
	v := in.Hammer.Victim()
	fmt.Printf("hammering rows %d/%d around victim row %d of bank %d\n",
		v.VictimRow-1, v.VictimRow+1, v.VictimRow, v.Bank)

	// Three refresh windows of simulated time.
	if err := in.RunFor(192 * time.Millisecond); err != nil {
		log.Fatal(err)
	}
	m := in.Machine
	for _, f := range m.Mem.DRAM.Flips() {
		fmt.Printf("  %v (t=%.1f ms)\n", f, m.Freq.Millis(f.Time))
	}
	return in
}
