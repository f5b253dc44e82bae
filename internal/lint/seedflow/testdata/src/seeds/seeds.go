// Package seeds is a host-side helper fixture: it is outside any zone, so
// nothing reports here, but functions handing out fixed streams export
// facts that flag their deterministic-zone callers.
package seeds

import (
	"crypto/rand" // no finding: the ambient-RNG import rule covers deterministic-zone packages only

	"sim"
)

// DefaultRNG hands out a fixed stream; its fact flags zone callers.
func DefaultRNG() *sim.Rand {
	return sim.NewRand(42)
}

// Wrapped reaches the fixed stream one frame down; the fact records the
// chain.
func Wrapped() *sim.Rand {
	return DefaultRNG()
}

// FromSeed passes the caller's seed through: clean, no fact — misuse is
// judged at each call site from the argument's provenance.
func FromSeed(seed uint64) *sim.Rand {
	return sim.NewRand(seed)
}

// Nonce draws OS entropy, as host-side code may.
func Nonce() []byte {
	b := make([]byte, 8)
	_, _ = rand.Read(b)
	return b
}
