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
// read of a known line at a known offset. So AccessRun applies a whole
// iteration of the program at once, from a summary of the cycle at the
// iteration's position, when the iteration starts at a cycle position that
// is a multiple of the iteration length and every one of these holds:
//
//   - the iteration's requests match the cycle's ops (one key compare each),
//     and none of them writes a line back;
//   - DRAM accepts the iteration's reads (dram.GuardReads);
//   - the PMU's overflow budget covers its loads and stores, and no PEBS
//     sampler can take a sample before the iteration ends;
//   - the iteration ends before the run's stop time.
//
// Then nothing the per-request path would run can act inside the iteration
// (no PMU hook, no kernel handler, no stop), and the skip makes exactly the
// per-request path's state changes: DRAM applies the reads at the times the
// per-request path would make them, the hierarchy moves its cursor as
// replayed requests would, the PMU counts the loads, stores and LLC misses
// in one batch, and the clock and RunResult advance by the summary's
// latencies plus the reads'. Anything else falls back to the per-request
// path.
//
// Summaries are built lazily, one per iteration of the cycle, and keyed by
// the hierarchy's replay generation, which moves whenever a new cycle
// starts replaying.

// iterSum summarises the iteration starting at one position of the cycle.
type iterSum struct {
	built bool // for the current generation
	ok    bool // the iteration can be skipped
	// keys holds each request's line address and kind, as reqKey forms them.
	keys []uint64
	// reads are the iteration's LLC misses, each read a Gap after the
	// previous one completes: the latencies of the requests in between and
	// the miss's own LLC latency.
	reads []dram.RefRead

	loads, stores, flushes uint64
	missLoads, missStores  uint64
	lat                    sim.Cycles // every request's latency, DRAM reads excluded
	memLat                 sim.Cycles // the same over loads and stores
	lastLat                sim.Cycles // the last load or store's, DRAM read excluded
	lastMiss               bool       // the last load or store missed the LLC
}

// skipper holds the summaries of the cycle being replayed.
type skipper struct {
	gen  uint64
	iter int // the iteration length the summaries were built for
	sums []iterSum
}

// reqKey packs a request's line address and kind into one word.
func reqKey(pa uint64, kind ReqKind) uint64 {
	return pa&^(cache.LineSize-1) | uint64(kind)
}

// skipIter applies the iteration reqs, whose first request opens it, from
// its summary when every condition above holds, and reports whether it did.
// bound is AccessRun's overflow budget, which it spends.
func (s *System) skipIter(reqs []Req, now *sim.Cycles, stopAt sim.Cycles, bound *uint64, r *RunResult) bool {
	gen, pos, n, ok := s.Caches.ReplayCursor()
	iter := len(reqs)
	if !ok || pos+iter > n {
		return false
	}
	k := &s.skip
	if k.gen != gen || k.iter != iter {
		k.gen, k.iter = gen, iter
		for i := range k.sums {
			k.sums[i].built = false
		}
		for len(k.sums) < n/iter {
			k.sums = append(k.sums, iterSum{})
		}
	}
	j := pos / iter
	if pos != j*iter {
		return false
	}
	sum := &k.sums[j]
	if !sum.built {
		s.summarise(sum, pos, iter)
	}
	if !sum.ok || sum.loads+sum.stores > *bound {
		return false
	}
	for i := range reqs {
		if reqKey(reqs[i].PA, reqs[i].Kind) != sum.keys[i] {
			return false
		}
	}
	dramLat, ok := s.DRAM.GuardReads(sum.reads, *now)
	if !ok {
		return false
	}
	end := *now + sum.lat + dramLat
	if end >= stopAt || !s.PMU.SamplesNone(end, sum.loads > 0, sum.stores > 0) {
		return false
	}

	s.DRAM.ApplyReads(sum.reads)
	s.Caches.SkipReplayed(iter)
	s.PMU.CountRun(sum.loads, sum.stores, sum.missLoads, sum.missStores)
	*bound -= sum.loads + sum.stores
	*now = end
	r.Executed += iter
	r.Skipped++
	r.Loads += sum.loads
	r.Stores += sum.stores
	r.Flushes += sum.flushes
	if sum.loads+sum.stores > 0 {
		r.MemCycles += sum.memLat + dramLat
		r.LastLatency = sum.lastLat
		if sum.lastMiss {
			r.LastLatency += sum.reads[len(sum.reads)-1].Latency()
		}
		r.HadMem = true
	}
	return true
}

// summarise builds the summary of the iteration at cycle position pos.
func (s *System) summarise(sum *iterSum, pos, iter int) {
	*sum = iterSum{built: true, keys: sum.keys[:0], reads: sum.reads[:0]}
	var st, prev sim.Cycles // static latency so far, and at the previous miss
	for i := pos; i < pos+iter; i++ {
		op := s.Caches.CycleOp(i)
		if op.Writeback {
			return
		}
		kind := ReqLoad
		switch {
		case op.Flush:
			kind = ReqFlush
			sum.flushes++
		case op.Write:
			kind = ReqStore
			sum.stores++
		default:
			sum.loads++
		}
		sum.keys = append(sum.keys, reqKey(op.PA, kind))
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
			return
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
	sum.ok = true
}
