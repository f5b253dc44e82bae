package sim

// Rand is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded through splitmix64). Every stochastic component of
// the simulator owns its own Rand so that adding or removing one component
// never perturbs the random streams seen by the others.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded from the given value. Any seed,
// including zero, produces a valid non-degenerate state.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the state derived from seed.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
}

// Split derives an independent generator from r's current state, advancing r.
// Use it to hand child components their own streams.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n is 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with n == 0") //lint:allow errpanic documented contract; n==0 is a programmer error, not a recoverable simulation state
	}
	// Lemire-style rejection-free bias for our purposes is acceptable only
	// for small n; use simple rejection to stay exactly uniform.
	mask := ^uint64(0)
	if n&(n-1) == 0 { // power of two
		return r.Uint64() & (n - 1)
	}
	limit := mask - mask%n
	for {
		v := r.Uint64()
		if v < limit {
			return v % n
		}
	}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0") //lint:allow errpanic documented contract; n<=0 is a programmer error, not a recoverable simulation state
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly reorders the first n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Geometric returns a sample from a geometric distribution with success
// probability p: the number of failures before the first success. Used for
// "next sampled event in N occurrences" style probabilistic sampling.
func (r *Rand) Geometric(p float64) uint64 {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return 1 << 62 // effectively never
	}
	n := uint64(0)
	for !r.Bool(p) {
		n++
		if n >= 1<<32 {
			return n
		}
	}
	return n
}
