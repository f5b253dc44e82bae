// Command anvilsim runs one scenario on the simulated machine: a workload
// and/or a rowhammer attack, under a chosen defense, and reports what
// happened to the DRAM and what the defense cost. It is a thin CLI over
// scenario.Spec — flags map one-to-one onto Spec fields.
//
// Examples:
//
//	anvilsim -attack double-flush -defense anvil -duration 192ms
//	anvilsim -workload mcf -defense anvil -duration 200ms
//	anvilsim -attack clflush-free -workload mcf,libquantum,omnetpp -defense anvil
//	anvilsim -attack double-flush -defense 2x-refresh
//	anvilsim -attack single-flush -defense para -seed 7
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("anvilsim: ")
	var (
		attackKind = flag.String("attack", "", "attack to run: single-flush, double-flush, clflush-free")
		workloads  = flag.String("workload", "", "comma-separated SPEC2006 profiles to co-run")
		defName    = flag.String("defense", "none", "defense: "+defenseNames())
		duration   = flag.Duration("duration", 192*time.Millisecond, "simulated run time")
		weakUnits  = flag.Float64("weak", scenario.DefaultWeakUnits, "disturbance threshold planted at the attack's victim row")
		seed       = flag.Uint64("seed", 0, "root seed for machine-level randomness (0 = calibrated defaults)")
		stepBatch  = flag.Int("step-batch", 0, "machine batch cap: 1 forces per-op stepping (A/B escape hatch), 0 = default")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	// The audited single exit: profiling setup and the run itself both
	// funnel their failures back here.
	if err := profiledRun(*cpuProf, *memProf, *attackKind, *workloads, *defName,
		*duration, *weakUnits, *seed, *stepBatch); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// profiledRun brackets run with the optional CPU/heap profiles; a profile
// teardown failure surfaces only when the run itself succeeded.
func profiledRun(cpuProf, memProf, attackKind, workloads, defName string,
	duration time.Duration, weakUnits float64, seed uint64, stepBatch int) (err error) {
	stopProfiles, err := profiling.Start(cpuProf, memProf)
	if err != nil {
		return err
	}
	defer func() {
		if stopErr := stopProfiles(); stopErr != nil {
			if err == nil {
				err = stopErr
			} else {
				log.Print(stopErr)
			}
		}
	}()
	return run(attackKind, workloads, defName, duration, weakUnits, seed, stepBatch)
}

func run(attackKind, workloads, defName string, duration time.Duration, weakUnits float64, seed uint64, stepBatch int) error {
	if duration <= 0 {
		return fmt.Errorf("-duration must be positive, got %v", duration)
	}
	spec := scenario.Spec{
		Seed:      seed,
		Duration:  duration,
		Defense:   scenario.DefenseKind(defName),
		StepBatch: stepBatch,
	}
	if attackKind != "" {
		spec.Attack = &scenario.Attack{
			Kind:      scenario.AttackKind(attackKind),
			WeakUnits: weakUnits,
		}
	}
	for _, name := range strings.Split(workloads, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if _, ok := workload.ByName(name); !ok {
			return fmt.Errorf("unknown workload %q (try: %s)", name, names())
		}
		spec.Workloads = append(spec.Workloads, scenario.Workload{Name: name})
	}
	if spec.Attack == nil && len(spec.Workloads) == 0 {
		return fmt.Errorf("nothing to run: pass -attack and/or -workload")
	}

	in, err := scenario.Build(spec)
	if err != nil {
		return err
	}
	m := in.Machine
	if in.Hammer != nil {
		v := in.Hammer.Victim()
		planted, _ := m.Mem.DRAM.RowThreshold(v.Bank, v.VictimRow)
		fmt.Printf("attack %s targeting bank %d victim row %d (weakest cell: %.0f units)\n",
			attackKind, v.Bank, v.VictimRow, planted)
	}

	if err := in.RunFor(duration); err != nil {
		return err
	}

	// Report.
	fmt.Printf("\nsimulated %v at %.1f GHz\n", duration, float64(m.Freq.Hz())/1e9)
	t := report.New("Cores", "core", "program", "ops", "kernel cycles")
	for _, c := range m.Cores {
		name := "-"
		if c.Prog != nil {
			name = c.Prog.Name()
		}
		t.Add(c.ID, name, c.Stats.Ops, uint64(c.Stats.KernelCycles))
	}
	fmt.Println(t)

	ds := m.Mem.DRAM.Stats()
	fmt.Printf("DRAM: %d activations, %d row hits, %d refresh stalls\n",
		ds.Activations, ds.RowHits, ds.RefreshStalls)
	flips := m.Mem.DRAM.Flips()
	if len(flips) == 0 {
		fmt.Println("bit flips: none")
	} else {
		fmt.Printf("bit flips: %d (first: %v at %.1f ms)\n", len(flips), flips[0],
			m.Freq.Millis(flips[0].Time))
	}
	if in.Hammer != nil {
		fmt.Printf("attack issued %d aggressor row accesses\n", in.Hammer.AggressorAccesses())
	}
	if in.Detector != nil {
		st := in.Detector.Stats()
		fmt.Printf("ANVIL: %d/%d stage-1 windows crossed, %d detections, %d selective refreshes\n",
			st.Stage1Crossings, st.Stage1Windows, len(st.Detections), st.Refreshes)
		if len(st.Detections) > 0 {
			fmt.Printf("first detection at %.1f ms: aggressors %v\n",
				m.Freq.Millis(st.Detections[0].Time), st.Detections[0].Aggressors)
		}
	}
	if in.HW != nil {
		fmt.Printf("%s issued %d victim refreshes\n", in.HW.Name(), in.HW.Refreshes())
	}
	return nil
}

func defenseNames() string {
	var out []string
	for _, k := range scenario.DefenseKinds() {
		out = append(out, string(k))
	}
	return strings.Join(out, ", ")
}

func names() string {
	var out []string
	for _, p := range workload.SPEC2006() {
		out = append(out, p.Name)
	}
	return strings.Join(out, ", ")
}
