package memsys

import (
	"testing"

	"repro/internal/pmu"
	"repro/internal/sim"
)

// buildRun returns a mixed load/store/flush request sequence over a few rows
// and banks, pre-translated the way the machine's gather loop would.
func buildRun() []Req {
	var reqs []Req
	for i := 0; i < 48; i++ {
		va := uint64(0x40000 + i*64)
		kind := ReqLoad
		switch {
		case i%7 == 3:
			kind = ReqStore
		case i%11 == 5:
			kind = ReqFlush
		}
		reqs = append(reqs, Req{VA: va, PA: va, Kind: kind})
	}
	return reqs
}

// TestAccessRunMatchesPerOp pins the batched path to the per-op reference:
// the same request sequence through AccessRun and through individual
// Access/Flush calls must leave both systems in identical observable state —
// same clock, same PMU counters, same cache/DRAM responses.
func TestAccessRunMatchesPerOp(t *testing.T) {
	batched := newSystem(t)
	perOp := newSystem(t)
	reqs := buildRun()

	var bNow sim.Cycles = 1000
	kgen := uint64(0)
	rr := batched.AccessRun(reqs, 0, 0, 3, 1, &bNow, 1<<62, &kgen)
	if rr.Executed != len(reqs) {
		t.Fatalf("AccessRun executed %d of %d requests", rr.Executed, len(reqs))
	}

	var pNow sim.Cycles = 1000
	var loads, stores, flushes uint64
	var memCycles, last sim.Cycles
	for _, req := range reqs {
		if req.Kind == ReqFlush {
			pNow += perOp.Flush(req.PA, pNow)
			flushes++
			continue
		}
		write := req.Kind == ReqStore
		res := perOp.Access(req.VA, req.PA, write, 3, 1, pNow)
		pNow += res.Latency
		memCycles += res.Latency
		last = res.Latency
		if write {
			stores++
		} else {
			loads++
		}
	}

	if bNow != pNow {
		t.Errorf("clock diverged: batched %d, per-op %d", bNow, pNow)
	}
	if rr.Loads != loads || rr.Stores != stores || rr.Flushes != flushes {
		t.Errorf("op counts diverged: batched %d/%d/%d, per-op %d/%d/%d",
			rr.Loads, rr.Stores, rr.Flushes, loads, stores, flushes)
	}
	if rr.MemCycles != memCycles || rr.LastLatency != last || !rr.HadMem {
		t.Errorf("latency accounting diverged: batched (%d, %d, %v), per-op (%d, %d, true)",
			rr.MemCycles, rr.LastLatency, rr.HadMem, memCycles, last)
	}
	events := []pmu.Event{pmu.EvLLCMiss, pmu.EvLLCMissLoads, pmu.EvLoads, pmu.EvStores, pmu.EvLLCReference}
	for _, ev := range events {
		if b, p := batched.PMU.Read(ev), perOp.PMU.Read(ev); b != p {
			t.Errorf("PMU event %v diverged: batched %d, per-op %d", ev, b, p)
		}
	}
}

// TestAccessRunStopsAtHorizon verifies the run cuts at a request boundary
// once the clock reaches stopAt, leaving the rest unexecuted.
func TestAccessRunStopsAtHorizon(t *testing.T) {
	s := newSystem(t)
	reqs := buildRun()
	var now sim.Cycles
	kgen := uint64(0)
	// The first request always executes; a stopAt of 1 cuts right after it.
	rr := s.AccessRun(reqs, 0, 0, 0, 0, &now, 1, &kgen)
	if rr.Executed != 1 {
		t.Errorf("expected exactly the first request, executed %d", rr.Executed)
	}
	if now == 0 {
		t.Error("clock did not advance")
	}
}

// TestAccessRunSteadyStateAllocs pins the allocation-free property of the
// batched hot loop: a warmed AccessRun over cache-resident lines must not
// allocate (the PR-3 hot-path alloc tests, extended to the batched path).
func TestAccessRunSteadyStateAllocs(t *testing.T) {
	s := newSystem(t)
	var reqs []Req
	for i := 0; i < 64; i++ {
		va := uint64(0x8000 + i*64)
		reqs = append(reqs, Req{VA: va, PA: va, Kind: ReqLoad})
	}
	var now sim.Cycles
	kgen := uint64(0)
	s.AccessRun(reqs, 0, 0, 0, 0, &now, 1<<62, &kgen) // warm up: fills, victim lazy allocs
	allocs := testing.AllocsPerRun(1000, func() {
		s.AccessRun(reqs, 0, 0, 0, 0, &now, 1<<62, &kgen)
	})
	if allocs != 0 {
		t.Errorf("steady-state AccessRun allocates %.1f times per run, want 0", allocs)
	}
}
