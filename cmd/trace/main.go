// Command trace replays a recorded memory trace on the simulated machine,
// optionally under ANVIL, and reports cache, DRAM and detector behaviour.
// The trace format is one op per line: "L <addr>", "S <addr>", "F <addr>",
// "C <cycles>" (see internal/workload.ParseTrace).
//
// Usage:
//
//	trace -file access.trace [-loops N] [-anvil] [-detailed-dram]
//	trace -demo > demo.trace          # emit a sample trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/dram"
	"repro/internal/machine"
	"repro/internal/pmu"
	"repro/internal/scenario"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trace: ")
	var (
		file     = flag.String("file", "", "trace file to replay")
		loops    = flag.Uint64("loops", 1, "times to replay the trace (0 = forever, bounded by -max-ms)")
		useANVIL = flag.Bool("anvil", false, "attach the ANVIL detector")
		detailed = flag.Bool("detailed-dram", false, "use the command-level DRAM timing engine")
		maxMS    = flag.Uint64("max-ms", 1000, "simulated-time cap in milliseconds")
		demo     = flag.Bool("demo", false, "print a demonstration trace and exit")
		record   = flag.String("record", "", "record a SPEC profile's stream to stdout instead of replaying")
		ops      = flag.Uint64("ops", 10_000, "memory operations to record with -record")
	)
	flag.Parse()

	if !*demo && *record == "" && *file == "" {
		log.Print("need -file (or -demo)")
		os.Exit(2)
	}
	// The audited single exit: every mode funnels its failure back here.
	var err error
	switch {
	case *demo:
		err = emitDemo()
	case *record != "":
		err = recordProfile(*record, *ops)
	default:
		err = run(*file, *loops, *useANVIL, *detailed, *maxMS)
	}
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

func run(file string, loops uint64, useANVIL, detailed bool, maxMS uint64) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := workload.ParseTrace(f)
	if err != nil {
		return err
	}
	prog, err := workload.NewTraceProgram(file, recs, loops)
	if err != nil {
		return err
	}

	var spec scenario.Spec
	if useANVIL {
		spec.Defense = scenario.ANVILBaseline
	}
	if detailed {
		spec.Mutate = func(cfg *machine.Config) { cfg.Memory.DRAM.Detailed = dram.Detailed(cfg.Freq) }
	}
	in, err := scenario.Build(spec)
	if err != nil {
		return err
	}
	m := in.Machine
	if _, err := m.Spawn(0, prog); err != nil {
		return err
	}
	err = m.Run(m.Freq.Cycles(time.Duration(maxMS) * time.Millisecond))
	if err != nil && !errors.Is(err, machine.ErrAllDone) {
		return err
	}
	finished := errors.Is(err, machine.ErrAllDone)

	st := m.Cores[0].Stats
	fmt.Printf("replayed %d records x %d loops (%s)\n", len(recs), loops,
		map[bool]string{true: "completed", false: "hit the time cap"}[finished])
	fmt.Printf("simulated time: %.3f ms, ops: %d (%d loads, %d stores, %d flushes)\n",
		m.Freq.Millis(m.Cores[0].Now), st.Ops, st.Loads, st.Stores, st.Flushes)
	hs := m.Mem.Caches.Stats()
	fmt.Printf("caches: %d LLC misses (%.2f%% of accesses)\n", hs.LLCMisses,
		100*float64(hs.LLCMisses)/float64(max(1, st.Loads+st.Stores)))
	ds := m.Mem.DRAM.Stats()
	fmt.Printf("DRAM: %d activations, %d row hits, %d flips\n", ds.Activations, ds.RowHits, ds.Flips)
	fmt.Printf("PMU: %d misses counted\n", m.Mem.PMU.Read(pmu.EvLLCMiss))
	if in.Detector != nil {
		s := in.Detector.Stats()
		fmt.Printf("ANVIL: %d/%d windows crossed, %d detections, %d refreshes\n",
			s.Stage1Crossings, s.Stage1Windows, len(s.Detections), s.Refreshes)
	}
	return nil
}

// emitDemo writes a small trace that thrashes one DRAM row pair.
func emitDemo() error {
	var recs []workload.Record
	for i := 0; i < 64; i++ {
		recs = append(recs,
			workload.Record{Kind: machine.OpLoad, VA: 0x10_0000 + uint64(i%8)*64},
			workload.Record{Kind: machine.OpCompute, Cycles: 120},
			workload.Record{Kind: machine.OpLoad, VA: 0x40_0000 + uint64(i)*4096},
		)
	}
	return workload.FormatTrace(os.Stdout, recs)
}

// recordProfile runs a synthetic profile and prints its operation stream.
func recordProfile(name string, ops uint64) error {
	prof, ok := workload.ByName(name)
	if !ok {
		return fmt.Errorf("unknown profile %q", name)
	}
	prog, err := workload.New(prof)
	if err != nil {
		return err
	}
	rec := workload.NewRecorder(prog.WithOpLimit(ops), 0)
	in, err := scenario.Build(scenario.Spec{})
	if err != nil {
		return err
	}
	if _, err := in.Machine.Spawn(0, rec); err != nil {
		return err
	}
	if err := in.RunToCompletion(); err != nil {
		return err
	}
	return workload.FormatTrace(os.Stdout, rec.Records())
}
