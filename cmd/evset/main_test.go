package main

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/golden"
)

// TestGolden pins the inference ranking and derived pattern for the default
// machine and for an LRU LLC.
func TestGolden(t *testing.T) {
	for _, policy := range []cache.PolicyKind{"bit-plru", "lru"} {
		got := golden.Stdout(t, func() {
			if err := run(policy, 60); err != nil {
				t.Fatal(err)
			}
		})
		golden.Check(t, string(policy)+".golden", got)
	}
}
