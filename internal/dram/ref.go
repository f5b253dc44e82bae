package dram

import "repro/internal/sim"

// Reads through pre-resolved references.
//
// A hammer loop reads the same few lines at the same offsets of every
// iteration, and once the cache hierarchy replays the loop's cache state
// the memory system knows a run of iterations' DRAM reads before it makes
// them (memsys's iteration skip). A Ref resolves such a line once: its
// coordinate, its rank and the victim records an activation of its row
// touches. ReadRefs makes a run of reads through refs, repeated up to k
// times, each read at the time the per-request path would make it, in one
// of two ways:
//
//   - The live read runs AccessCoord's own body (access) with the Ref's
//     records standing in for the lookups, so refresh stalls, the REF-close
//     check, the interceptor, injected faults and the activation hooks act
//     exactly as they do for a request.
//   - The steady repeat (steady) applies a stretch of reads whose outcome
//     is provably the same in every pass over the run. The module has no
//     interceptor or command engine, and every activation hook declared an
//     idle window; every bank the run reads holds the row the run's
//     cyclically last read of it opens, and was last accessed in the
//     memoised refresh epoch; every read of the stretch lies inside that
//     epoch, inside every hook's idle window (as the hook reports it at the
//     stretch's start) and inside its rank's memoised stall-free window;
//     and every record the run disturbs has its threshold cached and no
//     refresh sweep pending (lastScheduledRefresh <= lastReset). Then no
//     read stalls or finds its row closed by a REF, no hook acts, and each
//     read finds its bank as the run's cyclically previous read of it left
//     it, so its class and latency are the same in every pass, wherever
//     the stretch starts or ends. The lazy refresh check in deposit cannot
//     fire: lastScheduledRefresh depends on the time only through its
//     refresh epoch, injected refresh skips included, and lastReset only
//     grows. The tight loop makes, per activation, the self reset and the two
//     deposits in access's order through deposit's own code after its lazy
//     check (victim.add, flip), then adds the counters once and sets each
//     bank's open row and last access. The injected faults' part of the
//     per-activation work follows the loop (faultStretch). With refresh
//     skips, it notes the skipped slots that the deposits' refresh walks
//     pass: a walk is a function of the row and the epoch, and the notes
//     form a set, so walking the neighbours of each activating read applied
//     once suffices. With transient errors, it makes each activation's
//     draws, in activation order and at its time: they read only the
//     fault's own RNG, and nothing reads the transient list before the
//     stretch ends, since the hooks are idle.
//
// Anything the steady repeat does not cover takes the live read, one read
// at a time, after which the steady repeat is tried again. Re-entering it
// is cheap. It costs no division or modulo per read: one division finds
// the pass in which the stretch leaves a window. And the sweep check
// of the disturbed records runs once per call, not once per stretch:
// inside the call a record's last reset only moves to a time at or after
// the check (a self reset, or a deposit's lazy one) and nothing clears its
// threshold, so the check holds until one of the rows reaches its next
// sweep slot. Between calls a writeback, which reaches DRAM slightly in
// the past, can move a last reset back, and PlantWeakRow clears
// thresholds, so the memo ends with the call.
//
// ReadRefs makes whole repetitions only, each ending before a deadline,
// which memsys sets at its stop time or the next PEBS sample, and reports
// how many. The rule is exact, with no worst case for the steady repeat: a
// stretch knows the time of every read it covers before it applies any, so
// a repetition it covers whole is taken exactly when it ends before the
// deadline. A repetition read live, in whole or in part, is started only
// when it would end before the deadline even if every read waited out a
// whole tRFC and displaced an open row (RowConflict). The command engine's
// latencies have no such bound, so with it ReadRefs reads nothing.

// Ref is a pre-resolved reference to one DRAM line.
type Ref struct {
	c    Coord
	rank int
	self *victim // the row's own record
	// below and above are the records of rows c.Row-1 and c.Row+1, nil
	// outside the bank.
	below, above *victim
}

// Ref resolves the line at pa. It fails unless the row's record and its
// neighbours' inside the bank already exist: an activation of the row
// allocates the neighbours' pages, and in every geometry whose banks hold a
// multiple of 64 rows, one of them is the row's own. A read that missed the
// row buffer has activated its row; one that found it open, too, earlier.
// Pages are never freed, so the records stay valid for the module's
// lifetime.
func (m *Module) Ref(pa uint64) (Ref, bool) {
	c := m.coord(pa)
	bd := &m.disturbed[c.Bank]
	r := Ref{c: c, rank: m.cfg.Geometry.Rank(c.Bank), self: bd.peek(c.Row)}
	if c.Row > 0 {
		r.below = bd.peek(c.Row - 1)
	}
	if c.Row+1 < m.cfg.Geometry.RowsPerBank {
		r.above = bd.peek(c.Row + 1)
	}
	if r.self == nil || c.Row > 0 && r.below == nil || c.Row+1 < m.cfg.Geometry.RowsPerBank && r.above == nil {
		return Ref{}, false
	}
	return r, true
}

// RefRead is one read of a run through a Ref.
type RefRead struct {
	Ref Ref
	// Gap is the simulated time from the completion of the run's previous
	// read (the repetition's start, for the first) to this read.
	Gap sim.Cycles
}

// RefRun is what ReadRefs reports about the reads it made.
type RefRun struct {
	Reps    int        // whole repetitions made
	Latency sim.Cycles // every read's latency, summed
	Last    sim.Cycles // the last read's latency
	Steady  int        // reads the steady repeat applied
}

// ReadRefs makes the reads of run, repeated up to k times from start: each
// read Gap after the previous one completes, and each repetition after the
// first tail after the previous repetition's last read completes. It makes
// whole repetitions only, each ending (its tail included) before deadline,
// and reports how many (see the top of this file for which). The module
// ends exactly as that many repetitions of the reads through AccessCoord
// leave it.
func (m *Module) ReadRefs(run []RefRead, start, tail sim.Cycles, k int, deadline sim.Cycles) RefRun {
	var out RefRun
	n := len(run)
	if n == 0 { // each repetition is its tail
		if out.Reps = k; deadline <= start {
			out.Reps = 0
		} else if tail > 0 {
			out.Reps = int(min(uint64(k), uint64((deadline-start-1)/tail)))
		}
		return out
	}
	c := refCall{run: run, tail: tail, deadline: deadline, worst: ^sim.Cycles(0)}
	if m.engine == nil {
		c.worst = tail
		for _, rd := range run {
			c.worst += rd.Gap + m.cfg.Timing.RFC + m.cfg.Timing.RowConflict
		}
	}
	plain := m.interceptor == nil && m.engine == nil
	for _, h := range m.hooks {
		plain = plain && h.idle != nil
	}
	if plain {
		m.steadyPlan(run)
	}
	t := start
	// i is the next read's index in run, and done the repetitions made.
	i, done := 0, 0
	for done < k {
		if plain {
			left := k - done // repetitions not yet begun
			if i > 0 {
				left--
			}
			if x := m.steady(&c, i, &t, left, &out); x > 0 {
				if i += x; i >= n {
					done += i / n
					i %= n
				}
				continue
			}
		}
		if i == 0 && (t >= deadline || deadline-t <= c.worst) {
			break
		}
		rd := &run[i]
		t += rd.Gap
		out.Last = m.access(rd.Ref.c, rd.Ref.rank, false, t, &rd.Ref).Latency
		t += out.Last
		out.Latency += out.Last
		if i++; i == n {
			i = 0
			done++
			t += tail
		}
	}
	out.Reps = done
	return out
}

// refCall is what one ReadRefs call's steady stretches share.
type refCall struct {
	run            []RefRead
	tail, deadline sim.Cycles
	// worst bounds one repetition read live from its start: its gaps and
	// tail, and tRFC plus RowConflict per read; the largest time with the
	// command engine, whose latencies have no such bound.
	worst sim.Cycles
	// settledTo memoises settled for the run's activating reads: every
	// record they disturb is settled at any time from the check up to it,
	// 0 before the first check (see the top of this file).
	settledTo sim.Cycles
}

// steadyRead is one read of a run as the steady repeat applies it.
type steadyRead struct {
	ref *Ref
	// next is the index of the run's cyclically next read of the same
	// bank, the read itself when it is the bank's only one.
	next int
	// activate reports that the run's cyclically previous read of the bank
	// opened another row: in a steady repeat the read displaces it, at
	// RowConflict, and activates its own; otherwise it hits, at RowHit.
	activate bool
	lat      sim.Cycles
	// Set by each steady call: the read's offset from the time *t, in the
	// order the call reads the run, and the room from the read's first time
	// to the end of its windows, exclusive.
	off, room sim.Cycles
}

// steadyPlan fills m.steadyBuf with the bank structure of run, which the
// steady repeat reads the run by: each read finds its bank as the run's
// cyclically previous read of it left it, wherever a repetition starts.
func (m *Module) steadyPlan(run []RefRead) {
	if cap(m.steadyBuf) < len(run) {
		m.steadyBuf = make([]steadyRead, len(run))
	}
	sr := m.steadyBuf[:len(run)]
	for p := range run {
		c := run[p].Ref.c
		prev, next := p, p
		for d := 1; d < len(run); d++ {
			if run[(p+d)%len(run)].Ref.c.Bank == c.Bank {
				next = (p + d) % len(run)
				break
			}
		}
		for d := 1; d < len(run); d++ {
			if run[(p+len(run)-d)%len(run)].Ref.c.Bank == c.Bank {
				prev = (p + len(run) - d) % len(run)
				break
			}
		}
		sr[p] = steadyRead{ref: &run[p].Ref, next: next, activate: run[prev].Ref.c.Row != c.Row, lat: m.cfg.Timing.RowHit}
		if sr[p].activate {
			sr[p].lat = m.cfg.Timing.RowConflict
		}
	}
}

// steady applies as many of the reads of c.run from run[i] on, with *t
// the time run[i]'s Gap counts from, as the steady repeat covers (see the
// top of this file) and the repetition rule allows, advancing *t and adding
// to out, and returns how many it applied: 0 when any condition fails, with
// nothing changed. The reads wrap to run[0] after a tail. For i > 0 the
// repetition under way is finished first; after it, or from i = 0, at most
// left more repetitions follow, each ending before c.deadline, and the last
// may be begun and left for the live read only if it passes the worst-case
// check. steadyPlan has planned run.
func (m *Module) steady(c *refCall, i int, t *sim.Cycles, left int, out *RefRun) int {
	run := c.run
	n := len(run)
	sr := m.steadyBuf[:n]
	// Every read lies in the memoised epoch, in every hook's idle window
	// and in its rank's stall-free window.
	lo, hi := m.epochStart, m.epochEnd
	for _, h := range m.hooks {
		from, to := h.idle()
		lo, hi = max(lo, from), min(hi, to)
	}
	var off sim.Cycles
	minRoom := ^sim.Cycles(0)
	ends := *t // when the repetition under way ends, or, from i = 0, the last one
	for x, p := 0, i; x < n; x++ {
		rd := &run[p]
		if x > 0 && p == 0 {
			off += c.tail
			ends = *t + off
		}
		off += rd.Gap
		when := *t + off
		from, to := max(lo, m.stallFreeFrom[rd.Ref.rank]), min(hi, m.stallFreeTo[rd.Ref.rank])
		if when < from || when >= to {
			return 0
		}
		// The bank must hold the row of its last read in this order.
		d := sr[p].next - i
		if d < 0 {
			d += n
		}
		if d <= x {
			b := &m.banks[rd.Ref.c.Bank]
			if b.openRow != rd.Ref.c.Row || b.lastAccess < m.epochStart || b.lastAccess >= m.epochEnd {
				return 0
			}
		}
		sr[p].off, sr[p].room = off, to-1-when
		minRoom = min(minRoom, sr[p].room)
		off += sr[p].lat
		if p++; p == n {
			p = 0
		}
	}
	period := off // one pass over run from run[i] back to it
	if i == 0 {
		period += c.tail
	}
	// The read x of the order fits in the first room/period+1 passes. So
	// the stretch ends in the pass after the smallest room's, at the first
	// read whose room that pass exceeds.
	pass := uint64(minRoom/period) + 1
	last := 0
	for p := i; sr[p].room >= sim.Cycles(pass)*period; last++ {
		if p++; p == n {
			p = 0
		}
	}
	// The stretch covers at least one pass. Its first cur reads finish the
	// repetition under way; the rest fill whole repetitions, then rest
	// reads of one more. Each whole repetition must end before the
	// deadline, and the one begun must pass the worst-case check.
	if c.deadline <= ends {
		return 0
	}
	cur := 0
	if i > 0 {
		cur = n - i
	}
	whole, rest := int(pass), last-cur
	if rest < 0 {
		whole, rest = whole-1, rest+n
	}
	fit := uint64((c.deadline - ends - 1) / period)
	if lim := min(fit, uint64(left)); uint64(whole) > lim {
		whole, rest = int(lim), 0
	} else if rest > 0 && (whole == left || c.deadline-ends-sim.Cycles(whole)*period <= c.worst) {
		rest = 0
	}
	count := cur + whole*n + rest
	if count == 0 {
		return 0
	}
	t0 := *t + sr[i].off
	if t0 >= c.settledTo {
		until := ^sim.Cycles(0)
		for p := range run {
			if r := &run[p].Ref; sr[p].activate {
				below, belowTo := m.settled(r.below, r.c.Row-1, t0)
				above, aboveTo := m.settled(r.above, r.c.Row+1, t0)
				if !below || !above {
					return 0
				}
				until = min(until, belowTo, aboveTo)
			}
		}
		c.settledTo = until
	}

	bonus := m.cfg.Disturb.AlternationBonus
	base, p, x := *t, i, 0
	for j := 0; j < count; j++ {
		if s := &sr[p]; s.activate {
			now, r := base+s.off, s.ref
			r.self.units = 0
			r.self.lastReset = now
			r.self.lastSide = 0
			r.self.flipped = 0
			if r.below != nil && r.below.add(+1, bonus) {
				m.flip(r.below, r.c.Bank, r.c.Row-1, now)
			}
			if r.above != nil && r.above.add(-1, bonus) {
				m.flip(r.above, r.c.Bank, r.c.Row+1, now)
			}
		}
		if p++; p == n {
			p = 0
		}
		if x++; x == n {
			x = 0
			base += period
		}
	}
	if m.fault != nil {
		m.faultStretch(sr, i, count, *t, period)
	}

	// The counters, each read's count times of application, and the bank
	// state the last pass's reads leave.
	passes, more := count/n, count%n
	var acts uint64
	var lat sim.Cycles
	for x, p := 0, i; x < n; x++ {
		k := passes
		if x < more {
			k++
		}
		if sr[p].activate {
			acts += uint64(k)
		}
		lat += sim.Cycles(k) * sr[p].lat
		if p++; p == n {
			p = 0
		}
	}
	// The last n reads applied: from order position more of pass passes-1
	// on, or all of them from pass 0.
	base, x = *t, 0
	if passes > 0 {
		base, x = *t+sim.Cycles(passes-1)*period, more
	}
	var end sim.Cycles
	for p, j := (i+x)%n, min(count, n); j > 0; j-- {
		s := &sr[p]
		now := base + s.off
		b := &m.banks[s.ref.c.Bank]
		b.openRow, b.lastAccess = s.ref.c.Row, now
		end = now + s.lat
		out.Last = s.lat
		if p++; p == n {
			p = 0
		}
		if x++; x == n {
			x = 0
			base += period
		}
	}
	m.stats.Reads += uint64(count)
	m.stats.RowHits += uint64(count) - acts
	m.stats.RowConflicts += acts
	m.stats.Activations += acts
	*t = end
	if rest == 0 {
		*t += c.tail // the stretch ends a repetition
	}
	out.Latency += lat
	out.Steady += count
	return count
}

// faultStretch does the injected faults' part of the count reads that
// steady applied from sr[i] on, start being the time their gaps count from
// and period one pass over the run (see the top of this file). It notes the
// skipped REF slots that the deposits' refresh walks pass: for each
// activating read applied, those of its neighbours in the stretch's one
// epoch. Then it makes the transient draws, in activation order, each at
// its activation's time. It is a function of its own so that steady's
// disturbance loop keeps its values in registers.
func (m *Module) faultStretch(sr []steadyRead, i, count int, start, period sim.Cycles) {
	n := len(sr)
	if m.fault.cfg.RefreshSkipRate > 0 {
		t0 := start + sr[i].off
		for x, p := 0, i; x < min(count, n); x++ {
			if r := sr[p].ref; sr[p].activate {
				if r.below != nil {
					m.lastScheduledRefresh(r.c.Row-1, t0, true)
				}
				if r.above != nil {
					m.lastScheduledRefresh(r.c.Row+1, t0, true)
				}
			}
			if p++; p == n {
				p = 0
			}
		}
	}
	if m.fault.transients() {
		base, p, x := start, i, 0
		for j := 0; j < count; j++ {
			if s := &sr[p]; s.activate {
				m.injectTransient(s.ref.c, base+s.off)
			}
			if p++; p == n {
				p = 0
			}
			if x++; x == n {
				x = 0
				base += period
			}
		}
	}
}

// settled reports whether the record v of row (nil outside the bank) has
// its threshold cached and no refresh sweep pending at t, and until when
// that lasts while v's last reset only grows and its threshold stays: the
// start of the row's next sweep slot. It notes no skipped REF slot:
// faultStretch notes those of the reads steady applies.
func (m *Module) settled(v *victim, row int, t sim.Cycles) (bool, sim.Cycles) {
	if v == nil {
		return true, ^sim.Cycles(0)
	}
	k, swept := m.sweepSlot(row, m.refEpoch(t))
	if swept {
		k += uint64(m.cfg.Timing.RefreshCommands)
	}
	return v.thr != 0 && m.lastScheduledRefresh(row, t, false) <= v.lastReset, sim.Cycles(k) * m.trefi
}
