package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/golden"
	"repro/internal/scenario"
)

func TestConfigErrors(t *testing.T) {
	for _, tc := range []struct {
		duration time.Duration
		weak     float64
		want     string
	}{
		{0, scenario.DefaultWeakUnits, "-duration must be positive"},
		{-5 * time.Millisecond, scenario.DefaultWeakUnits, "-duration must be positive"},
		{time.Millisecond, -5, "dram: "},
	} {
		err := run("double-flush", "", "none", tc.duration, tc.weak, 0, 0)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-duration %v -weak %g: err = %v, want %q", tc.duration, tc.weak, err, tc.want)
		}
	}
}

// TestReportsPlantedThreshold checks that the banner shows the threshold
// Build planted, which for -weak 0 is the default rather than zero.
func TestReportsPlantedThreshold(t *testing.T) {
	for _, tc := range []struct {
		weak float64
		want string
	}{
		{0, "(weakest cell: 400000 units)"},
		{250_000, "(weakest cell: 250000 units)"},
	} {
		out := golden.Stdout(t, func() {
			if err := run("double-flush", "", "none", time.Millisecond, tc.weak, 0, 0); err != nil {
				t.Fatal(err)
			}
		})
		if !strings.Contains(out, tc.want) {
			t.Errorf("-weak %g: output lacks %q:\n%s", tc.weak, tc.want, out)
		}
	}
}
