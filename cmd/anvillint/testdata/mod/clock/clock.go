// Package clock is outside any determinism zone, so its time.Now draws no
// finding on its own line; the exported wallclock fact still flags the zone
// caller in package app across the package boundary.
package clock

import "time"

// Stamp reads the host clock.
func Stamp() int64 {
	return time.Now().UnixNano()
}
