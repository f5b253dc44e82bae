// Package profiling wires the standard pprof collectors into the CLIs.
// The simulator's hot loop (machine.runCore -> machine.execRing, which
// serves a periodic program from its pre-translated request ring, or
// machine.execView, which gathers a run through vm.Translate ->
// memsys.AccessRun -> cache access or replay -> dram Access -> PMU
// counters) is tuned against profiles of real experiment runs, so every
// binary that drives experiments exposes -cpuprofile and -memprofile flags
// through this package.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling and/or arranges a heap profile for the paths
// that are non-empty (either may be ""). The returned stop function
// finalises both profiles and must run before the process exits; defer it
// from main. Start never returns a nil stop function.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
			defer f.Close()
			runtime.GC() // settle allocation stats so the profile reflects live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		return nil
	}, nil
}
