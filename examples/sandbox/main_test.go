package main

import (
	"regexp"
	"testing"

	"repro/internal/golden"
)

// TestGolden pins the run, masking the host wall-clock time it reports.
func TestGolden(t *testing.T) {
	got := regexp.MustCompile(`[0-9.]+s host`).ReplaceAllString(golden.Stdout(t, main), "#s host")
	golden.Check(t, "stdout.golden", got)
}
