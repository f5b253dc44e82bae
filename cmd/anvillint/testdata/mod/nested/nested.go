// Package nested belongs to a module of its own, nested inside fixturemod.
// A "./..." walk of fixturemod must stop at its go.mod, as go list does, so
// the deterministic-zone time.Now below never appears in the findings.
//
//lint:zone deterministic
package nested

import "time"

// Stamp would be a wallclock finding if the walk descended here.
func Stamp() int64 {
	return time.Now().UnixNano()
}
