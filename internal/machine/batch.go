package machine

import (
	"math"
	"slices"

	"repro/internal/memsys"
	"repro/internal/sim"
)

// Batch-stepped execution. The per-op loop pays interpretive dispatch on
// every operation: a schedule scan, a timer-heap check, a virtual Next()
// call, and a full walk through System.Access. The batched core instead
// plans an *epoch* — the span up to the next architectural event horizon,
// min(next kernel timer, sibling core's clock, run deadline) — and lets the
// earliest core execute a pre-generated run of operations to that horizon
// in a tight loop. Nothing observable can happen inside an epoch (no timer
// is due, no other core is earlier, the PMU overflow budget is re-priced
// inside memsys.AccessRun, and DRAM evaluates refresh from each access's
// own time), so the output is byte-identical to per-op stepping;
// Config.BatchCap=1 forces the per-op path for A/B bisection.

// DefaultBatchCap is the view size requested from a BatchProgram when
// Config.BatchCap is zero.
const DefaultBatchCap = 256

// minEpochSpan is the shortest horizon gap worth planning an epoch for; a
// tighter horizon (sibling cores in near-lockstep) runs per-op instead. Purely
// a performance cutoff — both paths produce identical output.
const minEpochSpan = 64

// BatchProgram is optionally implemented by Programs that can expose a run
// of upcoming operations without committing to them, enabling batched
// execution. Programs that observe machine state between operations
// (Proc.LastLatency, Proc.Time, ...) to decide their next op must NOT
// implement it: a view has to be a pure function of the program's own
// committed state.
type BatchProgram interface {
	Program
	// NextRun returns a view of up to max upcoming operations, in exactly
	// the order Next would produce them. It commits nothing: the machine may
	// execute any prefix (including none) and report it via Advance, and
	// operations not advanced past must be re-served by later NextRun or
	// Next calls. The returned slice is only valid until the next method
	// call on the program.
	NextRun(max int) []Op
	// Advance commits the first n operations of the most recent NextRun
	// view as executed.
	Advance(n int)
}

// PeriodicProgram is optionally implemented by BatchPrograms whose stream is
// one fixed iteration repeated: the operation at committed position p, from
// Next or from any NextRun view, is always iter[p mod len(iter)], until the
// program ends. While such a program is the only one running, the batched
// core serves it from a ring of the iteration's requests, translated once
// (ringFor), instead of from views, up to the horizon or the program's end.
// The ring tags each request with its position in the iteration
// (memsys.Req.Pos), which lets the cache hierarchy replay a cache state
// that provably repeats. Per-op stepping never tags, so BatchCap=1 remains
// the unreplayed reference.
type PeriodicProgram interface {
	BatchProgram
	// Period reports how many operations are committed, the iteration,
	// which must not change after Init, and how many operations are left
	// before the terminal OpDone: the largest uint64 for a program that
	// never ends.
	Period() (committed uint64, iter []Op, left uint64)
}

// runCore advances c — which the caller established as the earliest active
// core — by one epoch (batch-capable programs) or one operation (everything
// else), returning the error left on c, if any.
func (m *Machine) runCore(c *Core, until sim.Cycles) error {
	bp := c.bprog
	if bp == nil {
		return m.stepCore(c)
	}
	horizon := until
	for _, cc := range m.Cores {
		if cc != c && !cc.Done && cc.Now < horizon {
			horizon = cc.Now
		}
	}
	kern := m.Kernel
	if len(kern.timers) > 0 && kern.timers[0].due < horizon {
		horizon = kern.timers[0].due
	}
	if horizon < c.Now+minEpochSpan {
		// The epoch is too short to amortise planning (typically a sibling
		// core sharing the clock, sometimes an imminent timer): interleave
		// through the per-op path, which re-evaluates the schedule op by op.
		// Per-op stepping is the reference semantics, so bailing here is
		// always output-identical.
		return m.stepCore(c)
	}
	kern.fireDue(c.Now)
	gen := kern.gen
	// A sibling can only start inside this epoch through Spawn, which bumps
	// the kernel generation and so ends it.
	pp := c.pprog
	if pp != nil && !m.onlyActive(c) {
		pp = nil
	}
	for c.Now < horizon && !c.Done && kern.gen == gen {
		var committed, left uint64
		var iter []Op
		if pp != nil {
			committed, iter, left = pp.Period()
		}
		var n int
		if left > 0 && c.ringFor(iter) {
			n = m.execRing(c, int(committed%uint64(len(iter))), int(min(left, math.MaxInt)), horizon, gen)
		} else {
			m.current = c
			ops := bp.NextRun(m.batchCap)
			m.current = nil
			n = m.execView(c, ops, horizon, gen)
		}
		if n == 0 {
			// Heterogeneous head (OpDone, invalid op, translation fault,
			// empty view): one per-op step reproduces the bookkeeping and
			// error wrapping exactly, ending the program if need be.
			return m.stepCore(c)
		}
		bp.Advance(n)
	}
	return c.Err
}

// reqKind maps a memory operation to its request kind; ok is false for
// every other operation.
func reqKind(k OpKind) (kind memsys.ReqKind, ok bool) {
	switch k {
	case OpLoad:
		return memsys.ReqLoad, true
	case OpStore:
		return memsys.ReqStore, true
	case OpFlush:
		return memsys.ReqFlush, true
	}
	return 0, false
}

// ringFor makes c.ring the requests of iter in c's address space at its
// current generation, rebuilding it when the address space has changed
// since it was built: the iteration translated, typed and tagged with each
// request's 1-based position, repeated as whole iterations to at least
// DefaultBatchCap entries. Translation is a pure function of the page map,
// so the ring holds exactly the requests the gather in execView would
// build. It reports false, and leaves the ring empty until the next remap,
// when the iteration holds an operation a ring cannot carry: an OpCompute,
// or a VA that does not translate, which execView and stepCore then report.
func (c *Core) ringFor(iter []Op) bool {
	as := c.Proc.AS
	if c.ringAS == as && c.ringGen == as.Gen() {
		return len(c.ring) > 0
	}
	c.ringAS, c.ringGen, c.ringIter = as, as.Gen(), len(iter)
	copies := (DefaultBatchCap + len(iter) - 1) / max(len(iter), 1)
	c.ring = slices.Grow(c.ring[:0], copies*len(iter))
	for j, op := range iter {
		kind, ok := reqKind(op.Kind)
		if !ok {
			c.ring = c.ring[:0]
			return false
		}
		pa, err := as.Translate(op.VA)
		if err != nil {
			c.ring = c.ring[:0]
			return false
		}
		c.ring = append(c.ring, memsys.Req{VA: op.VA, PA: pa, Kind: kind, Pos: uint32(j + 1)})
	}
	for len(c.ring) > 0 && len(c.ring) < copies*len(iter) {
		c.ring = append(c.ring, c.ring[:len(iter)]...)
	}
	return len(c.ring) > 0
}

// execRing executes up to n operations of c's periodic program, which has
// n left, from c.ring, starting at ring index start (the committed position
// in the iteration), and returns how many completed. It hands
// memsys.AccessRun windows of the ring, wrapping at its end, each with the
// operations left from it, so a skipped run may go past the window's end;
// it stops like execView — at the horizon or on a kernel-generation change
// — and also when the address space moves to a new generation under it (a
// handler remapped), leaving the rest to a rebuilt ring.
func (m *Machine) execRing(c *Core, start, n int, horizon sim.Cycles, gen uint64) int {
	kern := m.Kernel
	as := c.Proc.AS
	done, s := 0, start
	for done < n && c.Now < horizon && kern.gen == gen && as.Gen() == c.ringGen {
		end := s + min(len(c.ring)-s, n-done)
		k := m.accessRun(c, c.ring[s:end], c.ringIter, n-done, horizon)
		m.ringServed += uint64(k)
		done += k
		s = (s + k) % len(c.ring)
	}
	return done
}

// execView executes a prefix of ops on c and returns how many operations
// completed. It stops — always at an operation boundary — at the horizon, on
// a kernel-generation change (a handler armed an earlier event), or before
// the first operation the batched path cannot express (OpDone, invalid
// kinds, translation faults).
func (m *Machine) execView(c *Core, ops []Op, horizon sim.Cycles, gen uint64) int {
	kern := m.Kernel
	i := 0
	for i < len(ops) && c.Now < horizon && kern.gen == gen {
		if ops[i].Kind == OpCompute {
			c.Stats.Ops++
			c.Stats.ComputeCycles += ops[i].Cycles
			c.Now += ops[i].Cycles
			i++
			continue
		}
		reqs := c.reqs[:0]
		for _, op := range ops[i:] {
			kind, ok := reqKind(op.Kind)
			if !ok {
				break
			}
			pa, err := c.Proc.AS.Translate(op.VA)
			if err != nil {
				// Leave the faulting op for the per-op path, which reports
				// it with exact wrapping.
				break
			}
			reqs = append(reqs, memsys.Req{VA: op.VA, PA: pa, Kind: kind})
		}
		c.reqs = reqs
		if len(reqs) == 0 {
			return i
		}
		k := m.accessRun(c, reqs, 0, 0, horizon)
		i += k
		if k < len(reqs) {
			return i
		}
	}
	return i
}

// accessRun executes reqs on c through memsys.AccessRun up to the horizon
// and books what ran on c, returning how many requests completed. When reqs
// is a window of c's ring, iter is the iteration length and span the
// operations the program has left from reqs[0]; both are 0 otherwise.
func (m *Machine) accessRun(c *Core, reqs []memsys.Req, iter, span int, horizon sim.Cycles) int {
	m.current = c
	rr := m.Mem.AccessRun(reqs, iter, span, c.Proc.ID, c.ID, &c.Now, horizon, &m.Kernel.gen)
	m.current = nil
	m.itersSkipped += uint64(rr.Skipped)
	m.skipRuns += uint64(rr.SkipRuns)
	m.skippedReads += uint64(rr.SkippedReads)
	m.steadyReads += uint64(rr.SteadyReads)
	c.Stats.Ops += uint64(rr.Executed)
	c.Stats.Loads += rr.Loads
	c.Stats.Stores += rr.Stores
	c.Stats.Flushes += rr.Flushes
	c.Stats.MemCycles += rr.MemCycles
	if rr.HadMem {
		c.Proc.LastLatency = rr.LastLatency
	}
	return rr.Executed
}
