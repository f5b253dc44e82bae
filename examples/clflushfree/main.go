// The CLFLUSH-free attack end to end (§2.2): infer the LLC's replacement
// policy from performance counters, build pagemap-based eviction sets,
// derive the Fig. 1b access pattern, and flip a bit using nothing but
// ordinary loads — then show that restricting pagemap (the kernel
// mitigation) breaks this particular construction.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/scenario"
)

// build assembles a scenario, exiting on error.
func build(s scenario.Spec) *scenario.Instance {
	in, err := scenario.Build(s)
	if err != nil {
		log.Fatal(err)
	}
	return in
}

func main() {
	log.SetFlags(0)

	// Step 1: identify the replacement policy the way the authors did.
	fmt.Println("step 1: replacement-policy inference from the LLC miss counter")
	in := build(scenario.Spec{})
	scores, err := attack.RunInference(in.Machine, in.AttackOptions(), 60, cache.AllPolicies())
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range scores {
		fmt.Printf("  %-10s agreement %.3f\n", s.Policy, s.Match)
	}
	fmt.Printf("  => the LLC behaves like %s\n\n", scores[0].Policy)

	// Step 2: build the attack on a fresh machine; Build plants the weak
	// cell at the victim row the attack picks.
	fmt.Println("step 2: eviction sets via pagemap + policy-aware access pattern")
	in = build(scenario.Spec{Attack: &scenario.Attack{Kind: scenario.ClflushFree}})
	m := in.Machine
	a := in.Hammer.(*attack.ClflushFree)
	x, y := a.Patterns()
	fmt.Printf("  set X: %d accesses/iteration, %d steady-state misses, aggressor slot %d\n",
		len(x.Seq), x.MissesPerIteration, x.AggressorSlot)
	fmt.Printf("  set Y: %d accesses/iteration, %d steady-state misses, aggressor slot %d\n\n",
		len(y.Seq), y.MissesPerIteration, y.AggressorSlot)

	// Step 3: hammer with loads only.
	v := a.Victim()
	fmt.Printf("step 3: hammering victim row %d (bank %d) with loads only...\n", v.VictimRow, v.Bank)
	_, flipped, err := in.RunUntilFlip(192 * time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	if !flipped {
		log.Fatal("no flip — calibration drift?")
	}
	f := m.Mem.DRAM.Flips()[0]
	fmt.Printf("  BIT FLIP %v after %.1f ms, %d aggressor accesses, %d CLFLUSH instructions\n\n",
		f, m.Freq.Millis(f.Time), a.AggressorAccesses(), m.Cores[0].Stats.Flushes)

	// Step 4: the kernel mitigation (restricting pagemap) breaks this
	// construction — but, as the paper notes, attackers retain other ways
	// to learn physical layout.
	fmt.Println("step 4: with /proc/pagemap restricted (the deployed kernel patch):")
	in = build(scenario.Spec{})
	in.Machine.Kernel.Pagemap.Restricted = true
	b, err := attack.NewClflushFree(in.AttackOptions())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := in.Machine.Spawn(0, b); err != nil {
		fmt.Printf("  attack setup fails: %v\n", err)
	} else {
		fmt.Println("  unexpected: attack built eviction sets without pagemap")
	}
}
