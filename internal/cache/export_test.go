package cache

// ReplayServed reports how many requests steady-state replay has served on
// h, for the engagement tests in package cache_test.
func ReplayServed(h *Hierarchy) uint64 {
	h.settle()
	return h.rp.served
}
