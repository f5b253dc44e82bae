//lint:zone deterministic
package a

import (
	"math/rand" // want `import of "math/rand" brings an ambient RNG into deterministic-zone code`
	"time"

	"seeds"
	"sim"
)

var globalSeed uint64 = 7

// Spec stands in for scenario.Spec.
type Spec struct {
	Seed uint64
}

func literal() *sim.Rand {
	return sim.NewRand(1234) // want `sim\.NewRand seeds a sim\.Rand from constants only`
}

func fromGlobal() *sim.Rand {
	return sim.NewRand(globalSeed) // want `sim\.NewRand seeds a sim\.Rand from package-level var globalSeed`
}

func fromClock() *sim.Rand {
	return sim.NewRand(uint64(time.Now().UnixNano())) // want `sim\.NewRand seeds a sim\.Rand from the host clock \(time\.Now\)`
}

func crossPackage() *sim.Rand {
	return seeds.DefaultRNG() // want `call to seeds\.DefaultRNG yields a sim\.Rand seeded from constants only \(seeds\.go:\d+\)`
}

func crossPackageChain() *sim.Rand {
	return seeds.Wrapped() // want `call to seeds\.Wrapped yields a sim\.Rand seeded from constants only \(seeds\.go:\d+\) in deterministic-zone code via DefaultRNG`
}

func wrapperLiteral() *sim.Rand {
	return seeds.FromSeed(99) // want `seeds\.FromSeed seeds a sim\.Rand from constants only`
}

func reseed(r *sim.Rand) {
	r.Seed(7) // want `sim\.Rand\.Seed seeds a sim\.Rand from constants only`
}

func ambient() int {
	return rand.Int() // reported once, at the import
}

func tracedConstant() *sim.Rand {
	s := uint64(1234)
	return sim.NewRand(s) // want `sim\.NewRand seeds a sim\.Rand from constants only`
}

// ---- negatives: the blessed seed flows ----

func fromSpec(spec Spec) *sim.Rand {
	return sim.NewRand(spec.Seed) // clean: field of a parameter
}

func replicate(spec Spec, rep int) *sim.Rand {
	return sim.NewRand(sim.ReplicateSeed(spec.Seed, rep)) // clean: blessed derivation
}

func salted(spec Spec) *sim.Rand {
	const planSalt = 0x51ed2701
	return sim.NewRand(spec.Seed ^ planSalt) // clean: good provenance dominates the constant salt
}

func split(parent *sim.Rand) *sim.Rand {
	return parent.Split() // clean: substream of an existing stream
}

func drawn(parent *sim.Rand) *sim.Rand {
	return sim.NewRand(parent.Uint64()) // clean: seeded from an existing stream
}

func tracedLocal(spec Spec) *sim.Rand {
	s := spec.Seed + 1
	return sim.NewRand(s) // clean: the local traces back to the spec
}

func wrapperSpec(spec Spec) *sim.Rand {
	return seeds.FromSeed(spec.Seed) // clean: wrapper judged by its argument
}

// defaultStream keeps the zero-config path deterministic on purpose; the
// justified allow absorbs the taint so callers stay clean.
func defaultStream() *sim.Rand {
	return sim.NewRand(0) //lint:allow seedflow zero-config default stream is fixed by design
}

func callsDefault() *sim.Rand {
	return defaultStream() // clean: the allowed construction was absorbed
}
