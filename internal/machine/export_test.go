package machine

// RingServed reports how many memory requests m served from its cores'
// translated rings, for the engagement tests in package machine_test.
func RingServed(m *Machine) uint64 { return m.ringServed }

// IterationsSkipped reports how many whole iterations of periodic programs
// memsys.AccessRun skipped on m, for the engagement tests in package
// machine_test.
func IterationsSkipped(m *Machine) uint64 { return m.itersSkipped }
