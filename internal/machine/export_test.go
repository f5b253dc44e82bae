package machine

// RingServed reports how many memory requests m served from its cores'
// translated rings, for the engagement tests in package machine_test.
func RingServed(m *Machine) uint64 { return m.ringServed }
