// Command calibrate probes the synthetic SPEC profiles against ANVIL's
// detector: per-window LLC miss rates, stage-1 crossing fractions, and
// sampling-window locality peaks. It exists to keep the workload
// calibration honest when profiles or detector parameters change.
//
// Usage:
//
//	calibrate          # miss-rate table for all profiles
//	calibrate fp       # detector-side view: crossings, peaks, FP rates
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/pmu"
	"repro/internal/scenario"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("calibrate: ")
	if err := run(os.Args[1:]); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// run is the audited single-exit body: every probe failure funnels back
// here as an error and leaves through main's one os.Exit.
func run(args []string) error {
	if len(args) > 0 && args[0] == "fp" {
		for _, prof := range workload.SPEC2006() {
			if err := fpProbe(prof, 4*time.Second); err != nil {
				return fmt.Errorf("%s: %w", prof.Name, err)
			}
		}
		return nil
	}
	return missRates(50)
}

// missRates prints each profile's per-6ms LLC miss distribution.
func missRates(windows int) error {
	for _, prof := range workload.SPEC2006() {
		in, err := scenario.Build(scenario.Spec{Workloads: []scenario.Workload{{Name: prof.Name}}})
		if err != nil {
			return err
		}
		var rates []float64
		last := uint64(0)
		for i := 0; i < windows; i++ {
			if err := in.RunFor(6 * time.Millisecond); err != nil {
				return err
			}
			cur := in.Machine.Mem.PMU.Read(pmu.EvLLCMiss)
			rates = append(rates, float64(cur-last))
			last = cur
		}
		min, max, sum, cross := rates[0], rates[0], 0.0, 0
		for _, r := range rates {
			if r < min {
				min = r
			}
			if r > max {
				max = r
			}
			sum += r
			if r >= 20000 {
				cross++
			}
		}
		fmt.Printf("%-12s avg=%6.0f min=%6.0f max=%6.0f cross=%d/%d\n",
			prof.Name, sum/float64(windows), min, max, cross, windows)
	}
	return nil
}

// fpProbe runs one profile under ANVIL-baseline and reports crossing and
// false-positive behaviour.
func fpProbe(prof workload.Profile, dur time.Duration) error {
	in, err := scenario.Build(scenario.Spec{
		Workloads: []scenario.Workload{{Name: prof.Name}},
		Defense:   scenario.ANVILBaseline,
	})
	if err != nil {
		return err
	}
	if err := in.RunFor(dur); err != nil {
		return err
	}
	st := in.Detector.Stats()
	hist := map[int]int{}
	for _, p := range st.WindowPeaks {
		hist[p.MaxRow]++
	}
	fmt.Printf("%-12s cross=%4.0f%% sampleWins=%3d rowPeaks=%v det/s=%.2f refr/s=%.2f\n",
		prof.Name, 100*st.CrossingFraction(), len(st.WindowPeaks),
		hist, float64(len(st.Detections))/dur.Seconds(), float64(st.Refreshes)/dur.Seconds())
	return nil
}
