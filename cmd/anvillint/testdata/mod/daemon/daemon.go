// Package daemon stands in for a host-zone service such as internal/sweepd:
// reading the host clock is its job, so no analyzer reports the time.Now
// below and nothing in the module calls it from a deterministic zone.
//
//lint:zone host
package daemon

import "time"

// LeaseExpiry stamps a lease deadline in host wall-clock time.
func LeaseExpiry(ttl time.Duration) time.Time {
	return time.Now().Add(ttl)
}
