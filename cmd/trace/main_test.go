package main

import (
	"testing"

	"repro/internal/golden"
)

// TestGolden pins every mode: the demo trace (which the replays read back),
// a recorded SPEC profile, and a replay with and without ANVIL on the
// command-level DRAM engine.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"demo.trace", emitDemo},
		{"record_mcf.golden", func() error { return recordProfile("mcf", 1000) }},
		{"replay.golden", func() error { return run("testdata/demo.trace", 1, false, false, 1000) }},
		{"replay_anvil_detailed.golden", func() error { return run("testdata/demo.trace", 3000, true, true, 1000) }},
	} {
		got := golden.Stdout(t, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		golden.Check(t, tc.name, got)
	}
}
