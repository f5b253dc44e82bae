package machine

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/vm"
)

// Time-slicing: a core can run several programs round-robin, the way the
// paper's dual-core i5-2540M ran four processes. SpawnShared enqueues a
// program on a core's run queue; the core rotates tasks every Quantum
// cycles, charging ContextSwitchCost per switch. Cores driven only through
// Spawn keep the one-program-per-core behaviour.

// SchedParams configures per-core time slicing.
type SchedParams struct {
	Quantum           sim.Cycles // slice length (0 selects the default 1ms-at-2.6GHz)
	ContextSwitchCost sim.Cycles // cycles charged per rotation
}

// DefaultSchedParams is a 1 ms quantum with a 2K-cycle switch cost.
func DefaultSchedParams() SchedParams {
	return SchedParams{Quantum: 2_600_000, ContextSwitchCost: 2000}
}

// task is one scheduled program on a core.
type task struct {
	proc *Proc
	prog Program
	done bool
	err  error
}

// SpawnShared creates a process for prog and enqueues it on the given
// core's run queue, enabling time slicing when the core already runs
// something. The scheduler parameters apply machine-wide (set Machine.Sched
// before the first SpawnShared).
func (m *Machine) SpawnShared(core int, prog Program) (*Proc, error) {
	if core < 0 || core >= len(m.Cores) {
		return nil, fmt.Errorf("machine: no core %d", core)
	}
	c := m.Cores[core]
	p, err := m.newProc(prog)
	if err != nil {
		return nil, err
	}
	t := &task{proc: p, prog: prog}
	if c.Done && len(c.tasks) == 0 {
		// First occupant: behave exactly like Spawn, except run queues always
		// step per-op (rotation decides the next op's owner).
		c.Proc = p
		c.Prog = prog
		c.Done = false
		c.Err = nil
		c.bprog, c.pprog, c.ring, c.ringAS = nil, nil, nil, nil
		p.core = c
	}
	c.tasks = append(c.tasks, t)
	if c.sliceLeft == 0 {
		c.sliceLeft = m.quantum()
	}
	m.spawnGen++
	m.Kernel.gen++
	return p, nil
}

// newProc builds the process context and runs the program's Init.
func (m *Machine) newProc(prog Program) (*Proc, error) {
	k := m.Kernel
	k.nextTID++
	p := &Proc{
		ID:     k.nextTID,
		Name:   prog.Name(),
		AS:     vm.NewAddressSpace(k.Alloc),
		kernel: k,
	}
	k.procs[p.ID] = p
	if err := prog.Init(p); err != nil {
		delete(k.procs, p.ID)
		return nil, fmt.Errorf("machine: init %s: %w", prog.Name(), err)
	}
	return p, nil
}

func (m *Machine) quantum() sim.Cycles {
	if m.Sched.Quantum > 0 {
		return m.Sched.Quantum
	}
	return DefaultSchedParams().Quantum
}

// rotate advances the core to its next runnable task, charging the context
// switch. It returns false when no runnable task remains.
func (c *Core) rotate(m *Machine) bool {
	if len(c.tasks) == 0 {
		return !c.Done // single-program core: nothing to rotate
	}
	start := c.cur
	for i := 1; i <= len(c.tasks); i++ {
		next := (start + i) % len(c.tasks)
		if c.tasks[next].done {
			continue
		}
		if next != start || i < len(c.tasks) {
			// A genuine switch (or re-selection of the only runnable task).
			if next != start {
				c.Now += m.Sched.ContextSwitchCost
				c.Stats.ContextSwitches++
			}
		}
		c.cur = next
		t := c.tasks[next]
		c.Proc = t.proc
		c.Prog = t.prog
		t.proc.core = c
		c.sliceLeft = m.quantum()
		return true
	}
	return false
}

// syncTask records the outcome of the current task after an op and handles
// quantum accounting. elapsed is how far the core clock moved.
func (c *Core) syncTask(m *Machine, elapsed sim.Cycles, done bool, err error) {
	if len(c.tasks) == 0 {
		// Single-program core: legacy behaviour.
		if done || err != nil {
			c.Done = true
			c.Err = err
		}
		return
	}
	t := c.tasks[c.cur]
	if err != nil {
		t.done = true
		t.err = err
		c.Err = err
		c.Done = true // a faulting program aborts the run, as with Spawn
		return
	}
	if done {
		t.done = true
	}
	if elapsed >= c.sliceLeft {
		c.sliceLeft = 0
	} else {
		c.sliceLeft -= elapsed
	}
	if t.done || c.sliceLeft == 0 {
		if !c.rotate(m) {
			c.Done = true
		}
	}
}

// TaskErr returns the error recorded for the i-th task spawned on the core
// via SpawnShared (nil when it completed cleanly).
func (c *Core) TaskErr(i int) error {
	if i < 0 || i >= len(c.tasks) {
		return nil
	}
	return c.tasks[i].err
}
