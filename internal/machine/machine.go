// Package machine assembles the simulated computer: cores with local cycle
// clocks executing Programs inside process address spaces, a kernel with
// timers and pagemap services, and the shared memory system.
//
// The run loop is a conservative multi-core interleaving: the core with the
// minimum local time executes its next operation, so interactions through
// the shared LLC and DRAM are ordered by simulated time and the whole
// simulation is deterministic.
package machine

import (
	"errors"
	"fmt"

	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/vm"
)

// OpKind classifies a program operation.
type OpKind int

// Program operations.
const (
	// OpCompute spends Cycles of pure CPU work.
	OpCompute OpKind = iota
	// OpLoad reads VA.
	OpLoad
	// OpStore writes VA.
	OpStore
	// OpFlush executes CLFLUSH on VA.
	OpFlush
	// OpDone terminates the program.
	OpDone
)

// Op is one program operation.
type Op struct {
	Kind   OpKind
	VA     uint64
	Cycles sim.Cycles // OpCompute only
}

// Program generates the operation stream of one process. Implementations
// live in internal/workload (benchmarks) and internal/attack (rowhammers).
type Program interface {
	// Name identifies the program in reports.
	Name() string
	// Init is called once, before the first operation, with the program's
	// process context (address space, pagemap access, ...).
	Init(p *Proc) error
	// Next returns the next operation.
	Next() Op
}

// Proc is the process context a Program runs in.
type Proc struct {
	ID     int
	Name   string
	AS     *vm.AddressSpace
	kernel *Kernel
	core   *Core

	// LastLatency is the observed latency of the process's most recent
	// memory operation — what a program measures by bracketing a load with
	// RDTSC. Timing side channels (Flush+Reload, Evict+Reload) are built
	// on exactly this observable.
	LastLatency sim.Cycles
}

// Pagemap exposes the kernel's /proc/pagemap interface to the process.
func (p *Proc) Pagemap() *vm.Pagemap { return &p.kernel.Pagemap }

// Time returns the process's current cycle count (RDTSC).
func (p *Proc) Time() sim.Cycles {
	if p.core == nil {
		return 0
	}
	return p.core.Now
}

// Kernel bundles the OS services visible to programs and detectors.
type Kernel struct {
	Alloc   *vm.Allocator
	Pagemap vm.Pagemap
	procs   map[int]*Proc
	timers  []timer
	nextTID int
	seq     int
	fault   *kernelFault // nil unless Machine.InjectFaults installed one
	// gen counts schedule-shaping events (timer arming, spawns). The batched
	// core snapshots it when planning an epoch: any change mid-epoch means a
	// handler armed an event the plan did not account for, so the epoch ends
	// at the next operation boundary.
	gen uint64
}

// FaultConfig injects interrupt-delivery degradations into the kernel. The
// zero value injects nothing. Randomness comes from the *sim.Rand handed to
// InjectFaults, so a given (config, seed, schedule) degrades identically.
type FaultConfig struct {
	// TimerMaxDelay postpones every scheduled timer by a uniform
	// 0..TimerMaxDelay cycles (hrtimer latency under interrupt pressure).
	TimerMaxDelay sim.Cycles
	// IRQMaxCost charges a uniform 0..IRQMaxCost extra kernel cycles per
	// fired timer (slow interrupt entry/exit on a degraded machine).
	IRQMaxCost sim.Cycles
}

// FaultStats counts the degradations actually injected.
type FaultStats struct {
	DelayedTimers uint64     // timers whose deadline was postponed
	DelayCycles   sim.Cycles // total postponement
	IRQCostCycles sim.Cycles // total extra interrupt-delivery cost charged
}

type kernelFault struct {
	cfg    FaultConfig
	rng    *sim.Rand
	charge func(sim.Cycles) // ChargeCurrent backref for IRQ cost
	stats  FaultStats
}

// InjectFaults installs a kernel degradation model. Call at most once,
// before the run; a zero cfg changes nothing. rng must be dedicated to the
// kernel (see sim.Rand.Split).
func (m *Machine) InjectFaults(cfg FaultConfig, rng *sim.Rand) {
	m.Kernel.fault = &kernelFault{cfg: cfg, rng: rng, charge: m.ChargeCurrent}
}

// FaultStats reports the degradations injected so far (zero value without
// InjectFaults).
func (m *Machine) FaultStats() FaultStats {
	if m.Kernel.fault == nil {
		return FaultStats{}
	}
	return m.Kernel.fault.stats
}

// timers form a binary min-heap ordered by (due, seq); seq breaks ties so
// handlers scheduled for the same instant fire in scheduling order, keeping
// the simulation deterministic.
type timer struct {
	due sim.Cycles
	seq int // tie-break for determinism
	fn  func(now sim.Cycles)
}

func (t timer) before(u timer) bool {
	if t.due != u.due {
		return t.due < u.due
	}
	return t.seq < u.seq
}

// TaskSpace resolves a task id to its address space — what ANVIL does with
// the sampled task_struct to turn sampled virtual addresses into physical
// ones. It returns nil for unknown tasks.
func (k *Kernel) TaskSpace(task int) *vm.AddressSpace {
	if p, ok := k.procs[task]; ok {
		return p.AS
	}
	return nil
}

// At schedules fn to run at the given simulated time. O(log n) heap push,
// where the sorted slice this replaces paid an O(n log n) sort per insert.
func (k *Kernel) At(t sim.Cycles, fn func(now sim.Cycles)) {
	if f := k.fault; f != nil && f.cfg.TimerMaxDelay > 0 {
		if d := sim.Cycles(f.rng.Uint64n(uint64(f.cfg.TimerMaxDelay) + 1)); d > 0 {
			t += d
			f.stats.DelayedTimers++
			f.stats.DelayCycles += d
		}
	}
	k.seq++
	k.gen++
	k.timers = append(k.timers, timer{due: t, seq: k.seq, fn: fn})
	i := len(k.timers) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.timers[i].before(k.timers[parent]) {
			break
		}
		k.timers[i], k.timers[parent] = k.timers[parent], k.timers[i]
		i = parent
	}
}

// fireDue runs all timers due at or before now, in deadline order. Handlers
// may schedule new timers; those are honoured within the same call if also
// due.
func (k *Kernel) fireDue(now sim.Cycles) {
	for len(k.timers) > 0 && k.timers[0].due <= now {
		t := k.timers[0]
		n := len(k.timers) - 1
		k.timers[0] = k.timers[n]
		k.timers[n] = timer{} // drop the fn reference
		k.timers = k.timers[:n]
		for i := 0; ; {
			small := 2*i + 1
			if small >= n {
				break
			}
			if r := small + 1; r < n && k.timers[r].before(k.timers[small]) {
				small = r
			}
			if !k.timers[small].before(k.timers[i]) {
				break
			}
			k.timers[i], k.timers[small] = k.timers[small], k.timers[i]
			i = small
		}
		if f := k.fault; f != nil && f.cfg.IRQMaxCost > 0 {
			if c := sim.Cycles(f.rng.Uint64n(uint64(f.cfg.IRQMaxCost) + 1)); c > 0 {
				f.charge(c)
				f.stats.IRQCostCycles += c
			}
		}
		t.fn(t.due)
	}
}

// CoreStats aggregates one core's activity.
type CoreStats struct {
	Ops             uint64
	Loads           uint64
	Stores          uint64
	Flushes         uint64
	ContextSwitches uint64
	ComputeCycles   sim.Cycles
	MemCycles       sim.Cycles
	KernelCycles    sim.Cycles // cycles stolen by kernel work (PMIs, detector)
}

// Core executes one program, or a round-robin run queue of several (see
// SpawnShared).
type Core struct {
	ID    int
	Now   sim.Cycles
	Proc  *Proc // currently scheduled process
	Prog  Program
	Done  bool
	Err   error
	Stats CoreStats

	tasks     []*task
	cur       int
	sliceLeft sim.Cycles
	reqs      []memsys.Req // scratch buffer for the batched access path
	// bprog caches the BatchProgram assertion on Prog, set by Spawn when the
	// machine batches (BatchCap > 1). Nil selects the per-op step path; cores
	// with SpawnShared run queues always step per-op.
	bprog BatchProgram
	// pprog is bprog as a PeriodicProgram, when it is one.
	pprog PeriodicProgram
	// ring is pprog's iteration as requests, translated in ringAS at its
	// generation ringGen (see ringFor); Spawn and SpawnShared drop it.
	ring     []memsys.Req
	ringAS   *vm.AddressSpace
	ringGen  uint64
	ringIter int // requests per iteration
}

// Config sets up a Machine.
type Config struct {
	Freq   sim.Freq
	Cores  int
	Memory memsys.Config
	// AllocPolicy controls physical frame allocation (vm.FirstFit gives the
	// attacker contiguous buffers; vm.Scatter forces pagemap use).
	AllocPolicy vm.AllocPolicy
	AllocSeed   uint64
	// BatchCap bounds how many operations a batch-capable program executes
	// per inner-loop view (see BatchProgram); a ring-served periodic program
	// runs from its ring, without views. Zero selects DefaultBatchCap; 1
	// disables batching entirely, forcing the per-op step path — the escape
	// hatch for bisecting any batched-vs-per-op divergence. Results are
	// byte-identical at every setting.
	BatchCap int
}

// DefaultConfig models the paper's dual-core i5-2540M (2 cores; we ignore
// SMT) at 2.6 GHz. Four cores are used for the heavy-load experiments, one
// per co-running program.
func DefaultConfig() Config {
	return Config{
		Freq:        sim.DefaultFreq,
		Cores:       4,
		Memory:      memsys.DefaultConfig(sim.DefaultFreq),
		AllocPolicy: vm.FirstFit,
		AllocSeed:   0x05,
	}
}

// Machine is the assembled system.
type Machine struct {
	Freq   sim.Freq
	Mem    *memsys.System
	Kernel *Kernel
	Cores  []*Core
	// Sched configures per-core time slicing for SpawnShared run queues.
	Sched SchedParams

	current  *Core // core whose op is executing (for Charge)
	spawnGen int   // bumped by Spawn/SpawnShared; invalidates Run's fast path
	batchCap int   // resolved Config.BatchCap (<=1 means per-op stepping)
	// ringServed counts the memory requests served from cores' rings,
	// itersSkipped the iterations among them memsys.AccessRun skipped,
	// skipRuns the runs it skipped them in, skippedReads the DRAM reads of
	// those iterations, and steadyReads the reads among them that DRAM's
	// steady repeat applied.
	ringServed   uint64
	itersSkipped uint64
	skipRuns     uint64
	skippedReads uint64
	steadyReads  uint64
}

// New builds a machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("machine: need at least one core, got %d", cfg.Cores)
	}
	if cfg.BatchCap < 0 {
		return nil, fmt.Errorf("machine: batch cap must be non-negative, got %d", cfg.BatchCap)
	}
	batchCap := cfg.BatchCap
	if batchCap == 0 {
		batchCap = DefaultBatchCap
	}
	mem, err := memsys.New(cfg.Memory)
	if err != nil {
		return nil, err
	}
	alloc, err := vm.NewAllocator(cfg.Memory.DRAM.Geometry.Size(), cfg.AllocPolicy, cfg.AllocSeed)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Freq:     cfg.Freq,
		Mem:      mem,
		Kernel:   &Kernel{Alloc: alloc, procs: make(map[int]*Proc)},
		Sched:    DefaultSchedParams(),
		batchCap: batchCap,
	}
	for i := 0; i < cfg.Cores; i++ {
		m.Cores = append(m.Cores, &Core{ID: i, Done: true})
	}
	return m, nil
}

// Spawn creates a process for prog and assigns it to the given core.
func (m *Machine) Spawn(core int, prog Program) (*Proc, error) {
	if core < 0 || core >= len(m.Cores) {
		return nil, fmt.Errorf("machine: no core %d", core)
	}
	c := m.Cores[core]
	if !c.Done {
		return nil, fmt.Errorf("machine: core %d already running %s", core, c.Prog.Name())
	}
	p, err := m.newProc(prog)
	if err != nil {
		return nil, err
	}
	c.Proc = p
	c.Prog = prog
	c.Done = false
	c.Err = nil
	c.bprog, c.pprog, c.ring, c.ringAS = nil, nil, nil, nil
	if bp, ok := prog.(BatchProgram); ok && m.batchCap > 1 {
		c.bprog = bp
		c.pprog, _ = prog.(PeriodicProgram)
	}
	p.core = c
	m.spawnGen++
	m.Kernel.gen++
	return p, nil
}

// Charge adds kernel-stolen cycles to a core's clock (PMI handling, the
// detector's analysis work, selective-refresh reads).
func (m *Machine) Charge(core int, cycles sim.Cycles) {
	if core < 0 || core >= len(m.Cores) {
		return
	}
	c := m.Cores[core]
	c.Now += cycles
	c.Stats.KernelCycles += cycles
}

// ChargeCurrent charges the core whose operation is currently executing
// (or core 0 between operations).
func (m *Machine) ChargeCurrent(cycles sim.Cycles) {
	if m.current != nil {
		m.current.Now += cycles
		m.current.Stats.KernelCycles += cycles
		return
	}
	m.Charge(0, cycles)
}

// ErrAllDone is returned by Run when every program finished before the
// deadline.
var ErrAllDone = errors.New("machine: all programs finished")

// next returns the active core with the minimum local time.
func (m *Machine) next() *Core {
	var best *Core
	for _, c := range m.Cores {
		if c.Done {
			continue
		}
		if best == nil || c.Now < best.Now {
			best = c
		}
	}
	return best
}

// stepCore executes one operation on c, which the caller has established is
// the earliest active core. It returns the error the step left on c, if
// any — a step can only fault the core it ran on, so callers need not sweep
// the others.
func (m *Machine) stepCore(c *Core) error {
	m.Kernel.fireDue(c.Now)
	m.current = c
	op := c.Prog.Next()
	m.current = nil
	c.Stats.Ops++
	switch op.Kind {
	case OpCompute:
		c.Stats.ComputeCycles += op.Cycles
		c.Now += op.Cycles
		c.syncTask(m, op.Cycles, false, nil)
	case OpLoad, OpStore:
		pa, err := c.Proc.AS.Translate(op.VA)
		if err != nil {
			c.syncTask(m, 0, false, fmt.Errorf("machine: %s: %w", c.Prog.Name(), err))
			return c.Err
		}
		write := op.Kind == OpStore
		if write {
			c.Stats.Stores++
		} else {
			c.Stats.Loads++
		}
		m.current = c
		res := m.Mem.Access(op.VA, pa, write, c.Proc.ID, c.ID, c.Now)
		m.current = nil
		c.Proc.LastLatency = res.Latency
		c.Stats.MemCycles += res.Latency
		c.Now += res.Latency
		c.syncTask(m, res.Latency, false, nil)
	case OpFlush:
		pa, err := c.Proc.AS.Translate(op.VA)
		if err != nil {
			c.syncTask(m, 0, false, fmt.Errorf("machine: %s: %w", c.Prog.Name(), err))
			return c.Err
		}
		c.Stats.Flushes++
		lat := m.Mem.Flush(pa, c.Now)
		c.Now += lat
		c.syncTask(m, lat, false, nil)
	case OpDone:
		c.syncTask(m, 0, true, nil)
	default:
		c.syncTask(m, 0, false, fmt.Errorf("machine: %s produced invalid op kind %d", c.Prog.Name(), op.Kind))
	}
	return c.Err
}

// Run executes until every active core's clock reaches the deadline or all
// programs finish (returning ErrAllDone in that case). Program errors (page
// faults, invalid ops) abort the run.
func (m *Machine) Run(until sim.Cycles) error {
	for {
		c := m.next()
		if c == nil {
			return ErrAllDone
		}
		// Single-active-core fast path: almost every experiment runs one
		// program, making the per-step minimum-clock scan pure overhead.
		// Step the lone core in a tight loop; only a Spawn from a timer
		// handler can activate another core, so watch the spawn generation.
		if m.onlyActive(c) {
			gen := m.spawnGen
			for !c.Done {
				if c.Now >= until {
					m.Kernel.fireDue(until)
					return nil
				}
				if err := m.runCore(c, until); err != nil {
					return err
				}
				if m.spawnGen != gen {
					break
				}
			}
			continue
		}
		if c.Now >= until {
			m.Kernel.fireDue(until)
			return nil
		}
		if err := m.runCore(c, until); err != nil {
			return err
		}
	}
}

// onlyActive reports whether c is the only core still running a program.
func (m *Machine) onlyActive(c *Core) bool {
	for _, cc := range m.Cores {
		if cc != c && !cc.Done {
			return false
		}
	}
	return true
}

// RunFor is Run with a duration relative to the current earliest clock.
func (m *Machine) RunFor(d sim.Cycles) error {
	start := m.Time()
	return m.Run(start + d)
}

// Time returns the current simulated time: the minimum clock among active
// cores, or the maximum among all cores when none are active.
func (m *Machine) Time() sim.Cycles {
	if c := m.next(); c != nil {
		return c.Now
	}
	var t sim.Cycles
	for _, c := range m.Cores {
		t = sim.Max(t, c.Now)
	}
	return t
}
