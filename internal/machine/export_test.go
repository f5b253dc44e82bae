package machine

// RingServed reports how many memory requests m served from its cores'
// translated rings, for the engagement tests in package machine_test.
func RingServed(m *Machine) uint64 { return m.ringServed }

// IterationsSkipped reports how many whole iterations of periodic programs
// memsys.AccessRun skipped on m, for the engagement tests in package
// machine_test.
func IterationsSkipped(m *Machine) uint64 { return m.itersSkipped }

// SkipRuns reports how many runs of whole iterations memsys.AccessRun
// skipped on m, for the engagement tests in package machine_test.
func SkipRuns(m *Machine) uint64 { return m.skipRuns }

// SteadyReads reports how many DRAM reads of the iterations
// memsys.AccessRun skipped on m the steady repeat applied, of how many, for
// the engagement tests in package machine_test.
func SteadyReads(m *Machine) (steady, reads uint64) { return m.steadyReads, m.skippedReads }
