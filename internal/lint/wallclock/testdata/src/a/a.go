//lint:zone deterministic
package a

import (
	"time"

	"timeutil"
)

func direct() {
	_ = time.Now() // want `time\.Now reads the host clock in deterministic-zone code`
}

func directElapsed(start time.Time) {
	_ = time.Since(start)         // want `time\.Since reads the host clock in deterministic-zone code`
	_ = time.After(2 * time.Hour) // want `time\.After reads the host clock in deterministic-zone code`
}

func crossPackage() int64 {
	return timeutil.Stamp() // want `call to timeutil\.Stamp reaches time\.Now \(timeutil\.go:11\)`
}

func crossPackageChain() int64 {
	return timeutil.Elapsed() // want `call to timeutil\.Elapsed reaches time\.Now \(timeutil\.go:11\) from deterministic-zone code via Stamp`
}

func crossPackageMethod() time.Time {
	var c timeutil.Clock
	return c.Read() // want `call to timeutil\.Clock\.Read reaches time\.Now`
}

// tickHelper is a zone-internal root: the direct call reports here, and
// zone callers of it stay clean — fixing this one site fixes them all.
func tickHelper() {
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the host clock`
}

func callsZoneInternal() {
	tickHelper() // no finding: the root is reported inside the zone
}

//lint:zone host
func hostPath() time.Duration {
	start := time.Now() // no finding: this function opted out of the zone
	return time.Since(start)
}

func callsHostPath() {
	_ = hostPath() // want `call to hostPath reaches time\.Now`
}

func backoff(d time.Duration) {
	t := time.NewTimer(d) //lint:allow wallclock retry backoff is host wall-clock by design
	<-t.C
}

func callsBackoff() {
	backoff(time.Millisecond) // no finding: the allowed site absorbed the taint
}

func accepted(d time.Duration) time.Duration {
	return timeutil.Pure(d) + 5*time.Millisecond // clock-free helpers and duration arithmetic are fine
}
