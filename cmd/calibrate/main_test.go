package main

import (
	"testing"
	"time"

	"repro/internal/golden"
	"repro/internal/workload"
)

// TestGolden pins both probes over every profile, shortened to a few
// detector windows each.
func TestGolden(t *testing.T) {
	got := golden.Stdout(t, func() {
		if err := missRates(5); err != nil {
			t.Fatal(err)
		}
	})
	golden.Check(t, "missrates.golden", got)

	got = golden.Stdout(t, func() {
		for _, prof := range workload.SPEC2006() {
			if err := fpProbe(prof, 40*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	})
	golden.Check(t, "fp.golden", got)
}
