// Command evset demonstrates the attacker-side machinery of §2.2: building
// an eviction set through /proc/pagemap, inferring the LLC replacement
// policy by correlating performance-counter hit/miss traces against policy
// simulators, and deriving the miss-controlled access pattern of Fig. 1b.
//
// Usage:
//
//	evset [-policy bit-plru|lru|tree-plru|nru|srrip|random] [-rounds N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("evset: ")
	policy := flag.String("policy", "bit-plru", "replacement policy of the machine's LLC")
	rounds := flag.Int("rounds", 60, "probe passes over the eviction set")
	flag.Parse()
	if err := run(cache.PolicyKind(*policy), *rounds); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

func run(policy cache.PolicyKind, rounds int) error {
	spec := scenario.Spec{Mutate: func(cfg *machine.Config) { cfg.Memory.Cache.Levels[2].Policy = policy }}
	in, err := scenario.Build(spec)
	if err != nil {
		return err
	}
	opts := in.AttackOptions()

	fmt.Printf("machine LLC: %dKB %d-way, %d slices, policy %s\n",
		opts.LLC.SizeKB, opts.LLC.Ways, opts.LLC.Slices, policy)
	fmt.Printf("probing: cyclic access over a %d-address eviction set, classifying each access\n",
		opts.LLC.Ways+1)
	fmt.Println("via the LLC miss counter, then correlating against policy simulators...")
	fmt.Println()

	scores, err := attack.RunInference(in.Machine, opts, rounds, cache.AllPolicies())
	if err != nil {
		return err
	}
	t := report.New("Inference ranking", "candidate policy", "trace agreement")
	for _, s := range scores {
		t.AddStrings(string(s.Policy), fmt.Sprintf("%.3f", s.Match))
	}
	fmt.Println(t)
	if scores[0].Policy == policy {
		fmt.Printf("=> correctly identified %s\n\n", policy)
	} else {
		fmt.Printf("=> best match %s (actual %s)\n\n", scores[0].Policy, policy)
	}

	// Show the derived attack pattern for the identified policy.
	if in, err = scenario.Build(spec); err != nil {
		return err
	}
	opts = in.AttackOptions()
	opts.LLC.Policy = scores[0].Policy
	a, err := attack.NewClflushFree(opts)
	if err != nil {
		return err
	}
	if _, err := in.Machine.Spawn(0, a); err != nil {
		return fmt.Errorf("pattern derivation: %w (policy %s may not admit a stable 2-miss pattern)", err, scores[0].Policy)
	}
	x, _ := a.Patterns()
	fmt.Printf("derived CLFLUSH-free pattern for %s: %d accesses/iteration, %d steady-state misses,\n",
		scores[0].Policy, len(x.Seq), x.MissesPerIteration)
	fmt.Printf("aggressor in slot %d (misses — i.e. reaches DRAM — every iteration)\n", x.AggressorSlot)
	return nil
}
