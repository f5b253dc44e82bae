package cache

import (
	"slices"

	"repro/internal/sim"
)

// Steady-state replay.
//
// A rowhammer loop is one fixed iteration of accesses repeated until the
// first flip, and the cache outcome of an access is a function of the cache
// state and the access alone, never of the time or of what DRAM answers.
// So once the state an iteration reads comes back at an iteration boundary,
// every later access repeats the outcome recorded one cycle earlier, and
// the hierarchy applies that outcome instead of re-deriving it.
//
//   - Recording. From an iteration boundary on, each access runs for real
//     and its cache-side outcome is recorded: latency, data source, whether
//     it missed the LLC, which line it wrote back. The hierarchy traces the
//     sets every access touches (the request's and each victim's, in every
//     level) and at each boundary snapshots them (line words, invalid
//     mask, replacement word) with the MRU memos, lastHit and the flushed
//     tags, and notes every counter.
//   - Fixpoint. When a snapshot equals one of the last maxCycle taken over
//     the same traced sets, no access since that snapshot read anything
//     outside them, so the state those accesses started from has come back.
//     By induction over accesses, a request stream that repeats the
//     recorded (line, kind) sequence repeats its outcomes too, and each
//     pass over the cycle moves every counter by what it moved between the
//     two snapshots. The cycle may span several iterations: CLFLUSH-free's
//     8-way L1 and L2 rotate their ways and repeat only every 4.
//   - Replay. A request that matches the next recorded op gets its outcome
//     (latency, source, LLC-miss bit), while the DRAM read at now + LLC
//     latency and any writeback at now still run live, once per access and
//     in the recorded order, as does the PMU path in memsys. Each completed
//     pass over the cycle is counted. The real cache state stays frozen at
//     the cycle's start.
//   - Materialisation. Every other entry (Access, Flush, Contains, Level,
//     LLC, Stats), and a request that leaves the recorded sequence, first
//     settles the hierarchy: the counters take the cycle's deltas once for
//     each completed pass, and the cycle's executed prefix is re-run for
//     real against no memory, which rebuilds the cache state and adds the
//     counter increments of the partial cycle.
//
// Only memsys.AccessRun reaches replay, with the requests of the batched
// core's request ring, tagged with their position in a
// machine.PeriodicProgram's iteration. Per-op stepping never tags, so
// StepBatch=1 stays the unreplayed reference.
// Replay is off for policies kept behind the Policy interface (random,
// SRRIP, ...) and for TrueLRU wider than 8 ways.

const (
	maxCycle     = 8            // iterations a replayed cycle may span
	maxSnapshots = 2 * maxCycle // boundaries one recording takes before it gives up
	maxRecorded  = 4096         // ops one recording may hold
	maxTraced    = 64           // sets one recording may trace
	maxBackoff   = 1024         // boundaries skipped after a failed recording, at most
)

// Replay modes.
const (
	rpIdle uint8 = iota
	rpRecording
	rpReplaying
)

// replayOp flags: the request kind, then the outcome bits.
const (
	opWrite uint8 = 1 << iota
	opFlush
	opLLCMiss
	opWriteback
	opKinds = opWrite | opFlush
)

// replayOp is one recorded request of a periodic stream and its cache-side
// outcome. A request writes back at most one line, so one writeback slot
// records it exactly.
type replayOp struct {
	pa    uint64     // line address, checked against the request on replay
	wbPA  uint64     // line written back to memory, when flags&opWriteback
	lat   sim.Cycles // hit or flush latency; the LLC latency of a miss
	src   uint8      // DataSource of a load or store
	flags uint8
}

// tracedSet names one set of one level.
type tracedSet struct{ level, set int32 }

// replay is the hierarchy's record-and-replay state.
type replay struct {
	on      bool   // the configuration admits replay
	mode    uint8  // rpIdle, rpRecording or rpReplaying
	tracing bool   // a recorded request is running: fill traces its victims
	mute    bool   // materialise is re-running a prefix: hookMem drops calls
	live    Memory // the hierarchy's memory, while hookMem stands in for it

	ctr []*uint64 // every counter a request can move

	// Recording.
	recs   []replayOp  // ops since the first snapshot
	trace  []tracedSet // sets snapshotted at each boundary
	grew   bool        // trace grew since the last boundary
	snaps  []uint64    // one snapshot per boundary, all the same length
	marks  []int       // len(recs) at each snapshot
	counts []uint64    // the counters at each snapshot, len(ctr) each
	wb     int         // writebacks of the op being recorded, and the last one's line
	wbPA   uint64
	// skip counts boundaries to let pass before recording again; backoff
	// is the next skip, doubled by every recording that finds no cycle.
	skip, backoff int

	// Replaying.
	cycle []replayOp // a suffix of recs
	cur   int        // ops of cycle applied since the state's frozen start
	delta []uint64   // what one pass over cycle adds to each counter
	// passes counts the passes over cycle completed since the counters
	// last took their deltas; materialise adds them, before anything can
	// read a counter.
	passes uint64
	gen    uint64 // moves whenever a new cycle starts replaying

	served uint64 // requests served by replay in completed passes and settles
}

// initReplay decides whether the configuration admits replay and indexes
// the counters a request can move.
func (h *Hierarchy) initReplay() {
	r := &h.rp
	for _, l := range h.levels {
		if l.lruWord == nil && l.plruBits == nil || l.invMask == nil {
			return
		}
	}
	for _, l := range h.levels {
		s := &l.stats
		r.ctr = append(r.ctr, &s.Hits, &s.Misses, &s.Evictions, &s.Writebacks, &s.Flushes)
	}
	s := &h.stats
	r.ctr = append(r.ctr, &s.Loads, &s.Stores, &s.LLCMisses, &s.MemReads, &s.MemWrites, &s.Flushes)
	r.delta = make([]uint64, len(r.ctr))
	r.live = h.mem
	r.on = true
}

// AccessAt is Access for a request of a periodic program: pos is its
// 1-based position in the program's iteration, so pos 1 opens an
// iteration. memsys.AccessRun is its only caller.
func (h *Hierarchy) AccessAt(pa uint64, write bool, pos uint32, now sim.Cycles) Result {
	if !h.rp.on {
		return h.Access(pa, write, now)
	}
	kind := uint8(0)
	if write {
		kind = opWrite
	}
	return h.step(lineAlign(pa), kind, pos, now)
}

// FlushAt is Flush for a request of a periodic program; see AccessAt.
func (h *Hierarchy) FlushAt(pa uint64, pos uint32, now sim.Cycles) (sim.Cycles, int) {
	if !h.rp.on {
		return h.Flush(pa, now)
	}
	res := h.step(lineAlign(pa), opFlush, pos, now)
	return res.Latency, res.Writebacks
}

// step serves one tagged request: replayed when it matches the cycle,
// recorded while a recording is open, plain otherwise.
func (h *Hierarchy) step(pa uint64, kind uint8, pos uint32, now sim.Cycles) Result {
	r := &h.rp
	if r.mode == rpReplaying {
		if op := &r.cycle[r.cur]; op.pa == pa && op.flags&opKinds == kind {
			return h.apply(op, now)
		}
		h.materialise()
	}
	if pos == 1 {
		h.boundary()
		if r.mode == rpReplaying {
			if op := &r.cycle[0]; op.pa == pa && op.flags&opKinds == kind {
				return h.apply(op, now)
			}
			r.mode = rpIdle // nothing applied yet: the real state is current
		}
	}
	if r.mode == rpRecording {
		return h.record(pa, kind, now)
	}
	return h.plain(pa, kind, now)
}

// plain executes a request on the real cache state; the hierarchy must be
// idle, or Access and Flush settle it first.
func (h *Hierarchy) plain(pa uint64, kind uint8, now sim.Cycles) Result {
	if kind == opFlush {
		lat, wb := h.Flush(pa, now)
		return Result{Latency: lat, Writebacks: wb}
	}
	return h.Access(pa, kind == opWrite, now)
}

// apply serves a request from its recorded outcome. The memory accesses run
// live, in the order access would make them: the demand read, then the
// writeback.
func (h *Hierarchy) apply(op *replayOp, now sim.Cycles) Result {
	res := Result{Latency: op.lat, Source: DataSource(op.src)}
	if op.flags&opLLCMiss != 0 {
		res.LLCMiss = true
		res.Latency += h.mem.Access(op.pa, false, now+op.lat)
	}
	if op.flags&opWriteback != 0 {
		h.mem.Access(op.wbPA, true, now)
		res.Writebacks = 1
	}
	h.rp.advance(1)
	return res
}

// advance moves the cycle position past n applied ops, completing a pass
// each time it reaches the cycle's end.
func (r *replay) advance(n int) {
	if r.cur += n; r.cur >= len(r.cycle) {
		r.passes += uint64(r.cur / len(r.cycle))
		r.cur %= len(r.cycle)
	}
}

// Replayed is the outcome recorded for one op of the cycle being replayed.
type Replayed struct {
	PA    uint64 // the request's line address
	Write bool   // a store
	Flush bool   // a CLFLUSH
	// Latency is the hit or flush latency, or the LLC latency of a miss,
	// whose DRAM read follows at the request's time plus Latency.
	Latency   sim.Cycles
	LLCMiss   bool
	Writeback bool // the request wrote a line back to memory
}

// ReplayCursor reports, while h replays a cycle, the cycle's generation
// (which moves whenever a new cycle starts replaying), its length in ops
// and the position of the next op in it. ok is false when h is not
// replaying.
func (h *Hierarchy) ReplayCursor() (gen uint64, pos, n int, ok bool) {
	r := &h.rp
	return r.gen, r.cur, len(r.cycle), r.mode == rpReplaying
}

// CycleOp returns the outcome recorded at position i of the cycle h is
// replaying.
func (h *Hierarchy) CycleOp(i int) Replayed {
	op := &h.rp.cycle[i]
	return Replayed{
		PA:        op.pa,
		Write:     op.flags&opWrite != 0,
		Flush:     op.flags&opFlush != 0,
		Latency:   op.lat,
		LLCMiss:   op.flags&opLLCMiss != 0,
		Writeback: op.flags&opWriteback != 0,
	}
}

// SkipReplayed stands for the next n requests, which the caller has matched
// against the cycle's ops from the cursor on, wrapping at its end as often
// as they do: the hierarchy moves its cursor as AccessAt and FlushAt would,
// counting a pass each time the cycle completes. The ops' memory accesses
// are the caller's to make.
func (h *Hierarchy) SkipReplayed(n int) { h.rp.advance(n) }

// settle makes the real cache state and counters current and closes any
// recording or replay.
func (h *Hierarchy) settle() {
	if h.rp.mode != rpIdle {
		h.materialise()
	}
}

// materialise is settle's slow path. A replay is materialised by re-running
// the cycle's executed prefix for real against no memory.
func (h *Hierarchy) materialise() {
	r := &h.rp
	if r.passes > 0 {
		for k, c := range r.ctr {
			*c += r.delta[k] * r.passes
		}
		r.served += uint64(len(r.cycle)) * r.passes
		r.passes = 0
	}
	if r.mode == rpReplaying && r.cur > 0 {
		r.mode, r.mute, h.mem = rpIdle, true, hookMem{r}
		for i := range r.cycle[:r.cur] {
			op := &r.cycle[i]
			h.plain(op.pa, op.flags&opKinds, 0)
		}
		r.mute, h.mem = false, r.live
		r.served += uint64(r.cur)
	}
	r.mode = rpIdle
}

// hookMem stands in for the hierarchy's memory while a request is recorded,
// noting its writeback, and while materialise re-runs a replayed prefix,
// dropping every call: those accesses reached memory when they were
// replayed.
type hookMem struct{ r *replay }

func (m hookMem) Access(pa uint64, write bool, now sim.Cycles) sim.Cycles {
	r := m.r
	if r.mute {
		return 0
	}
	if write {
		r.wb++
		r.wbPA = pa
	}
	return r.live.Access(pa, write, now)
}

// boundary handles an iteration boundary: it opens a recording, or
// snapshots the open one and starts replay when the snapshot closes a
// cycle.
func (h *Hierarchy) boundary() {
	r := &h.rp
	switch r.mode {
	case rpIdle:
		if r.skip > 0 {
			r.skip--
			return
		}
		r.mode, r.grew = rpRecording, true
	case rpReplaying:
		return
	}
	if r.grew {
		// Earlier snapshots miss a set the accesses since then touched.
		r.recs, r.snaps, r.marks, r.counts, r.grew = r.recs[:0], r.snaps[:0], r.marks[:0], r.counts[:0], false
	}
	if len(r.trace) > maxTraced || len(r.marks) == maxSnapshots {
		h.giveUp()
		return
	}
	n0 := len(r.snaps)
	h.snapshot()
	cur := r.snaps[n0:]
	n := len(cur)
	for j := len(r.marks) - 1; j >= 0 && j >= len(r.marks)-maxCycle; j-- {
		if r.marks[j] < len(r.recs) && slices.Equal(r.snaps[j*n:(j+1)*n], cur) {
			then := r.counts[j*len(r.ctr):]
			for k, c := range r.ctr {
				r.delta[k] = *c - then[k]
			}
			r.cycle, r.cur, r.mode, r.backoff = r.recs[r.marks[j]:], 0, rpReplaying, 0
			r.gen++
			return
		}
	}
	r.marks = append(r.marks, len(r.recs))
	for _, c := range r.ctr {
		r.counts = append(r.counts, *c)
	}
}

// giveUp closes a recording that found no cycle and backs off, so a stream
// whose cache state never repeats pays for recording on a shrinking share
// of its iterations.
func (h *Hierarchy) giveUp() {
	r := &h.rp
	r.mode = rpIdle
	if len(r.trace) > maxTraced {
		r.trace = r.trace[:0]
	}
	r.skip = r.backoff
	r.backoff = min(2*r.backoff+1, maxBackoff)
}

// snapshot appends the state the traced sets and the hierarchy's memos hold.
func (h *Hierarchy) snapshot() {
	r := &h.rp
	r.snaps = append(r.snaps, uint64(h.lastHit), h.flushedTag[0], h.flushedTag[1], uint64(h.flushedPos))
	for _, l := range h.levels {
		r.snaps = append(r.snaps, uint64(l.mruIdx), l.mruTag)
	}
	for _, t := range r.trace {
		l, s := h.levels[t.level], int(t.set)
		repl := uint64(0)
		if l.lruWord != nil {
			repl = l.lruWord[s]
		} else {
			repl = l.plruBits[s]
		}
		r.snaps = append(r.snaps, l.flat[s*l.ways:(s+1)*l.ways]...)
		r.snaps = append(r.snaps, l.invMask[s], repl)
	}
}

// traceLine adds the set pa maps to in every level to the trace. Tracing
// every level, not only those an access reaches, over-approximates what
// the accesses touch, which only makes the fixpoint test stricter.
func (h *Hierarchy) traceLine(pa uint64) {
	r := &h.rp
	for i, l := range h.levels {
		t := tracedSet{int32(i), int32(l.setIndex(pa))}
		if !slices.Contains(r.trace, t) {
			r.trace = append(r.trace, t)
			r.grew = true
		}
	}
}

// record executes a request for real and appends its outcome.
func (h *Hierarchy) record(pa uint64, kind uint8, now sim.Cycles) Result {
	r := &h.rp
	if len(r.recs) == maxRecorded {
		h.giveUp()
		return h.plain(pa, kind, now)
	}
	h.traceLine(pa)
	// The request runs as a plain one, with the recording's hooks on.
	r.mode, r.tracing, r.wb, h.mem = rpIdle, true, 0, hookMem{r}
	res := h.plain(pa, kind, now)
	r.mode, r.tracing, h.mem = rpRecording, false, r.live
	if r.wb > 1 {
		h.giveUp()
		return res
	}
	op := replayOp{pa: pa, lat: res.Latency, src: uint8(res.Source), flags: kind}
	if res.LLCMiss {
		op.flags |= opLLCMiss
		op.lat = h.llc().cfg.Latency
	}
	if r.wb == 1 {
		op.flags |= opWriteback
		op.wbPA = r.wbPA
	}
	r.recs = append(r.recs, op)
	return res
}
