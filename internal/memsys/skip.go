package memsys

import (
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/sim"
)

// Iteration skip.
//
// While the cache hierarchy replays the cycle of a periodic program
// (cache/replay.go), every request that matches the cycle's next op repeats
// that op's recorded outcome: a fixed latency and, for an LLC miss, a DRAM
// read of a known line at a known offset. So AccessRun applies a run of
// whole iterations of the program at once, from summaries of the cycle's
// iterations, when the run starts at a cycle position that is a multiple of
// the iteration length and every one of these holds:
//
//   - the cycle is whole iterations, all of them carry the same request
//     keys (line and kind) and none writes a line back, and the window's
//     first iteration matches those keys (one compare each): a ring window
//     repeats with period iter, so that covers every iteration of the run;
//   - DRAM's timing is fixed (dram.Module.ReadBound): no command engine;
//   - the PMU's overflow budget covers the run's loads and stores;
//   - even at its slowest the run ends before the stop time and before any
//     PEBS sampler could take a sample (pmu.NextSample). An iteration takes
//     at most its cache latency plus, per read, ReadBound: tRFC and the
//     slowest row outcome.
//
// Then nothing the per-request path would run can act inside the run (no
// PMU hook, no kernel handler, no stop; a DRAM activation hook acts on the
// module only), and the skip makes exactly the per-request path's state
// changes: DRAM makes the reads at the times the per-request path would
// (dram.Module.ReadRefs, which repeats a cycle's reads in a tight loop
// once their outcome is steady), the hierarchy moves its cursor as replayed
// requests would, the PMU counts the loads, stores and LLC misses in one
// batch, and the clock and RunResult advance by the summaries' latencies
// plus the reads'. Anything else falls back to the per-request path.
//
// The summaries are built for the whole cycle at once, keyed by the
// hierarchy's replay generation, which moves whenever a new cycle starts
// replaying.

// iterSum summarises the iteration starting at one position of the cycle.
type iterSum struct {
	// reads are the iteration's LLC misses, each read a Gap after the
	// previous one completes (the first, after the iteration starts): the
	// latencies of the requests in between and the miss's own LLC latency.
	// tail is the latency of the requests after the last read, the whole
	// iteration's when it has none.
	reads []dram.RefRead
	tail  sim.Cycles
	// cyc and cycTail are the same for the whole cycle from this iteration
	// on, when the cycle spans more than one iteration.
	cyc     []dram.RefRead
	cycTail sim.Cycles

	missLoads, missStores uint64
	lat                   sim.Cycles // every request's latency, DRAM reads excluded
	memLat                sim.Cycles // the same over loads and stores
	lastLat               sim.Cycles // the last load or store's, DRAM read excluded
	lastMiss              bool       // the last load or store missed the LLC
}

// skipper holds the summaries of the cycle being replayed.
type skipper struct {
	gen  uint64
	iter int  // the iteration length the summaries were built for
	ok   bool // the cycle's iterations can be skipped
	// keys holds each request's line address and kind, as reqKey forms
	// them, the same in every iteration of the cycle, as are the counts.
	keys                   []uint64
	loads, stores, flushes uint64
	bound                  sim.Cycles // the slowest iteration's worst-case latency
	sums                   []iterSum  // one per iteration of the cycle
	// The cycle's totals.
	cycLat, cycMemLat           sim.Cycles
	cycMissLoads, cycMissStores uint64
}

// reqKey packs a request's line address and kind into one word.
func reqKey(pa uint64, kind ReqKind) uint64 {
	return pa&^(cache.LineSize-1) | uint64(kind)
}

// skipRun applies whole iterations of reqs, a window of a periodic
// program's request ring whose first request opens an iteration, while
// every condition above holds, and returns how many it applied. bound is
// AccessRun's overflow budget, which it spends.
func (s *System) skipRun(reqs []Req, iter int, now *sim.Cycles, stopAt sim.Cycles, bound *uint64, r *RunResult) int {
	gen, pos, n, ok := s.Caches.ReplayCursor()
	if !ok || pos%iter != 0 || n%iter != 0 {
		return 0
	}
	k := &s.skip
	if k.gen != gen || k.iter != iter {
		s.summarise(gen, iter, n)
	}
	if !k.ok {
		return 0
	}
	for i, key := range k.keys {
		if reqKey(reqs[i].PA, reqs[i].Kind) != key {
			return 0
		}
	}
	m := len(reqs) / iter
	if per := k.loads + k.stores; per > 0 && *bound/per < uint64(m) {
		m = int(*bound / per)
	}
	limit := min(stopAt, s.PMU.NextSample(k.loads > 0, k.stores > 0))
	if limit <= *now {
		return 0
	}
	if fit := uint64((limit - *now - 1) / k.bound); fit < uint64(m) {
		m = int(fit)
	}
	if m == 0 {
		return 0
	}

	c := len(k.sums)
	j := pos / iter
	t := *now
	var memLat, dramLat, lastRead sim.Cycles
	var missLoads, missStores uint64
	var last *iterSum
	reads, steady := 0, 0
	if full := m / c; full > 0 {
		sum := &k.sums[j]
		run, tail := sum.cyc, sum.cycTail
		if c == 1 {
			run, tail = sum.reads, sum.tail
		}
		rr := s.DRAM.ReadRefs(run, t, tail, full)
		t += sim.Cycles(full)*k.cycLat + rr.Latency
		memLat += sim.Cycles(full) * k.cycMemLat
		dramLat += rr.Latency
		missLoads += uint64(full) * k.cycMissLoads
		missStores += uint64(full) * k.cycMissStores
		reads += full * len(run)
		steady += rr.Steady
		last, lastRead = &k.sums[(j+c-1)%c], rr.Last
	}
	for x := 0; x < m%c; x++ {
		sum := &k.sums[(j+x)%c]
		rr := s.DRAM.ReadRefs(sum.reads, t, sum.tail, 1)
		t += sum.lat + rr.Latency
		memLat += sum.memLat
		dramLat += rr.Latency
		missLoads += sum.missLoads
		missStores += sum.missStores
		reads += len(sum.reads)
		steady += rr.Steady
		last, lastRead = sum, rr.Last
	}

	mm := uint64(m)
	s.Caches.SkipReplayed(m * iter)
	s.PMU.CountRun(mm*k.loads, mm*k.stores, missLoads, missStores)
	*bound -= mm * (k.loads + k.stores)
	*now = t
	r.Executed += m * iter
	r.Skipped += m
	r.SkippedReads += reads
	r.SteadyReads += steady
	r.Loads += mm * k.loads
	r.Stores += mm * k.stores
	r.Flushes += mm * k.flushes
	if k.loads+k.stores > 0 {
		r.MemCycles += memLat + dramLat
		r.LastLatency = last.lastLat
		if last.lastMiss {
			r.LastLatency += lastRead
		}
		r.HadMem = true
	}
	return m
}

// summarise builds the summaries of the n-op cycle of generation gen, in
// iterations of iter requests.
func (s *System) summarise(gen uint64, iter, n int) {
	k := &s.skip
	k.gen, k.iter, k.ok = gen, iter, false
	rb, ok := s.DRAM.ReadBound()
	if !ok {
		return
	}
	c := n / iter
	for len(k.sums) < c {
		k.sums = append(k.sums, iterSum{})
	}
	k.sums = k.sums[:c]
	k.keys = k.keys[:0]
	k.loads, k.stores, k.flushes = 0, 0, 0
	k.bound, k.cycLat, k.cycMemLat, k.cycMissLoads, k.cycMissStores = 1, 0, 0, 0, 0
	for j := range k.sums {
		sum := &k.sums[j]
		if !s.summariseIter(sum, j*iter, iter) {
			return
		}
		k.bound = max(k.bound, sum.lat+sim.Cycles(len(sum.reads))*rb)
		k.cycLat += sum.lat
		k.cycMemLat += sum.memLat
		k.cycMissLoads += sum.missLoads
		k.cycMissStores += sum.missStores
	}
	if c > 1 {
		for j := range k.sums {
			sum := &k.sums[j]
			sum.cyc = sum.cyc[:0]
			var carry sim.Cycles // since the last read completed
			for x := 0; x < c; x++ {
				o := &k.sums[(j+x)%c]
				for i, rd := range o.reads {
					if i == 0 {
						rd.Gap += carry
					}
					sum.cyc = append(sum.cyc, rd)
				}
				if len(o.reads) > 0 {
					carry = 0
				}
				carry += o.tail
			}
			sum.cycTail = carry
		}
	}
	k.ok = true
}

// summariseIter builds the summary of the iteration at cycle position pos,
// reporting false when it cannot be skipped. The first iteration's keys and
// counts become the cycle's; every other must match them.
func (s *System) summariseIter(sum *iterSum, pos, iter int) bool {
	k := &s.skip
	*sum = iterSum{reads: sum.reads[:0], cyc: sum.cyc}
	var st, prev sim.Cycles // static latency so far, and at the previous read
	for i := pos; i < pos+iter; i++ {
		op := s.Caches.CycleOp(i)
		if op.Writeback {
			return false
		}
		kind := ReqLoad
		switch {
		case op.Flush:
			kind = ReqFlush
		case op.Write:
			kind = ReqStore
		}
		key := reqKey(op.PA, kind)
		if pos == 0 {
			k.keys = append(k.keys, key)
			switch kind {
			case ReqFlush:
				k.flushes++
			case ReqStore:
				k.stores++
			default:
				k.loads++
			}
		} else if k.keys[i-pos] != key {
			return false
		}
		st += op.Latency
		if kind == ReqFlush {
			continue
		}
		sum.memLat += op.Latency
		sum.lastLat, sum.lastMiss = op.Latency, op.LLCMiss
		if !op.LLCMiss {
			continue
		}
		ref, ok := s.DRAM.Ref(op.PA)
		if !ok {
			return false
		}
		sum.reads = append(sum.reads, dram.RefRead{Ref: ref, Gap: st - prev})
		prev = st
		if kind == ReqStore {
			sum.missStores++
		} else {
			sum.missLoads++
		}
	}
	sum.lat = st
	sum.tail = st - prev
	return true
}
