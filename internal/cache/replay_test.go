package cache

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// memCall is one call the hierarchy made to its memory.
type memCall struct {
	pa    uint64
	write bool
	now   sim.Cycles
}

// logMem records every call and answers with a latency that depends on the
// address and the time, so a call made at the wrong time or to the wrong
// line changes the latencies the hierarchy reports.
type logMem struct{ calls []memCall }

func (m *logMem) Access(pa uint64, write bool, now sim.Cycles) sim.Cycles {
	m.calls = append(m.calls, memCall{pa, write, now})
	return 100 + sim.Cycles((pa>>lineShift^uint64(now))%64)
}

// streamOp is one request of a periodic stream.
type streamOp struct {
	pa   uint64
	kind uint8 // 0 load, opWrite store, opFlush flush
}

// twin drives one hierarchy through AccessAt/FlushAt and a second, built
// from the same configuration, through Access/Flush alone, and fails on the
// first difference either makes visible.
type twin struct {
	t            *testing.T
	rep, ref     *Hierarchy
	repMem       logMem
	refMem       logMem
	now          sim.Cycles
	applied      int // requests replay served, counted by the driver
	appliedWrite int // of those, requests whose replay wrote a line back
}

func newTwin(t *testing.T, cfg HierarchyConfig) *twin {
	tw := &twin{t: t}
	var err error
	if tw.rep, err = NewHierarchy(cfg, &tw.repMem); err != nil {
		t.Fatal(err)
	}
	if tw.ref, err = NewHierarchy(cfg, &tw.refMem); err != nil {
		t.Fatal(err)
	}
	return tw
}

// periodic issues op as the pos-th request of the stream's iteration.
func (tw *twin) periodic(op streamOp, pos uint32) {
	tw.t.Helper()
	replaying := tw.rep.rp.mode == rpReplaying
	var got, want Result
	if op.kind == opFlush {
		got.Latency, got.Writebacks = tw.rep.FlushAt(op.pa, pos, tw.now)
		want.Latency, want.Writebacks = tw.ref.Flush(op.pa, tw.now)
	} else {
		got = tw.rep.AccessAt(op.pa, op.kind == opWrite, pos, tw.now)
		want = tw.ref.Access(op.pa, op.kind == opWrite, tw.now)
	}
	if replaying && tw.rep.rp.mode == rpReplaying {
		tw.applied++
		if got.Writebacks > 0 {
			tw.appliedWrite++
		}
	}
	if got != want {
		tw.t.Fatalf("request %d (pa %#x kind %d pos %d): replayed %+v, reference %+v",
			len(tw.refMem.calls), op.pa, op.kind, pos, got, want)
	}
	tw.now += want.Latency + 1
}

// interrupt makes one plain call on both hierarchies.
func (tw *twin) interrupt(which int, pa uint64) {
	tw.t.Helper()
	switch which % 5 {
	case 0:
		got, want := tw.rep.Access(pa, false, tw.now), tw.ref.Access(pa, false, tw.now)
		if got != want {
			tw.t.Fatalf("interrupting Access(%#x): %+v, reference %+v", pa, got, want)
		}
		tw.now += want.Latency
	case 1:
		got, want := tw.rep.Access(pa, true, tw.now), tw.ref.Access(pa, true, tw.now)
		if got != want {
			tw.t.Fatalf("interrupting store %#x: %+v, reference %+v", pa, got, want)
		}
		tw.now += want.Latency
	case 2:
		gl, gw := tw.rep.Flush(pa, tw.now)
		wl, ww := tw.ref.Flush(pa, tw.now)
		if gl != wl || gw != ww {
			tw.t.Fatalf("interrupting Flush(%#x): %d/%d, reference %d/%d", pa, gl, gw, wl, ww)
		}
	case 3:
		if got, want := tw.rep.Contains(pa), tw.ref.Contains(pa); got != want {
			tw.t.Fatalf("interrupting Contains(%#x): %v, reference %v", pa, got, want)
		}
	default:
		tw.check("mid-stream")
	}
}

// check compares every counter, the memory-call logs and, through Level,
// the full contents and replacement state of every level.
func (tw *twin) check(when string) {
	tw.t.Helper()
	if got, want := tw.rep.Stats(), tw.ref.Stats(); got != want {
		tw.t.Fatalf("%s: hierarchy stats %+v, reference %+v", when, got, want)
	}
	for i := range tw.ref.levels {
		got, want := tw.rep.Level(i), tw.ref.Level(i)
		if got.Stats() != want.Stats() {
			tw.t.Fatalf("%s: level %d stats %+v, reference %+v", when, i, got.Stats(), want.Stats())
		}
		if !slices.Equal(got.flat, want.flat) || !slices.Equal(got.invMask, want.invMask) ||
			!slices.Equal(got.lruWord, want.lruWord) || !slices.Equal(got.lruOrder, want.lruOrder) ||
			!slices.Equal(got.plruBits, want.plruBits) {
			tw.t.Fatalf("%s: level %d contents or replacement state differ", when, i)
		}
	}
	if !slices.Equal(tw.repMem.calls, tw.refMem.calls) {
		n := min(len(tw.repMem.calls), len(tw.refMem.calls))
		i := 0
		for i < n && tw.repMem.calls[i] == tw.refMem.calls[i] {
			i++
		}
		tw.t.Fatalf("%s: memory calls differ at call %d of %d/%d", when, i, len(tw.repMem.calls), len(tw.refMem.calls))
	}
}

// byteSource reads a fuzz input, then zeros once it runs out.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

// fuzzConfig builds a small hierarchy from the input: one to three levels of
// 1–12 ways, 1–8 sets and 1–2 slices, under TrueLRU and BitPLRU mostly,
// sometimes random or SRRIP.
func fuzzConfig(s *byteSource) HierarchyConfig {
	cfg := HierarchyConfig{FlushLatency: 8, Seed: uint64(s.next())}
	n := 1 + s.next()%3
	for i := 0; i < n; i++ {
		ways := []int{1, 2, 4, 8, 12}[s.next()%5]
		sets := 1 << (s.next() % 4)
		slices := 1 << (s.next() % 2)
		for ways*sets*slices%16 != 0 {
			sets *= 2
		}
		pol := []PolicyKind{TrueLRU, TrueLRU, TrueLRU, BitPLRU, BitPLRU, BitPLRU, Random, SRRIP}[s.next()%8]
		lat := sim.Cycles(4 + 8*i)
		var thr sim.Cycles
		if s.next()%2 == 0 {
			thr = lat / 2
		}
		cfg.Levels = append(cfg.Levels, LevelConfig{Name: fmt.Sprintf("L%d", i+1),
			SizeKB: ways * sets * slices / 16, Ways: ways, Slices: slices, Policy: pol,
			Latency: lat, Throughput: thr})
	}
	// One byte that chooses nothing: the stream's bytes keep their places,
	// so the seed inputs draw the streams they were written for.
	s.next()
	return cfg
}

// runStream issues iters iterations of iter, the pos-th request tagged pos,
// with an interrupting plain call whenever interrupt says so.
func runStream(tw *twin, iter []streamOp, iters int, interrupt func(k int) (int, uint64, bool)) {
	k := 0
	for it := 0; it < iters; it++ {
		for p, op := range iter {
			if which, pa, ok := interrupt(k); ok {
				tw.interrupt(which, pa)
			}
			tw.periodic(op, uint32(p+1))
			k++
		}
	}
	tw.check("end")
}

// FuzzReplayMatchesAccess drives random periodic streams of loads, stores
// and flushes over random small hierarchies through AccessAt/FlushAt,
// interrupted at random points by plain Access, Flush, Contains and
// Stats/Level calls, against a twin driven through Access/Flush alone. Every
// Result, every counter, the memory-call log (pa, write, now) and the final
// contents must agree, and configurations replay does not support must not
// replay.
func FuzzReplayMatchesAccess(f *testing.F) {
	f.Add([]byte{1, 3, 3, 2, 0, 1, 0, 3, 2, 1, 4, 1, 0, 0, 8, 6, 10, 5, 3, 40, 41, 3, 42, 43, 44, 45, 46, 47, 9, 7})
	f.Add([]byte{2, 2, 3, 0, 0, 0, 1, 2, 1, 3, 1, 3, 4, 3, 0, 1, 1, 1, 3, 1, 9, 3, 0, 16, 32, 48, 64, 17, 33, 0, 200})
	f.Add([]byte{5, 1, 4, 0, 1, 4, 0, 1, 11, 2, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23})
	f.Add([]byte{7, 3, 2, 1, 1, 6, 0, 2, 2, 1, 7, 1, 3, 3, 0, 5, 0, 6, 8, 9})
	f.Add([]byte{0, 2, 1, 0, 0, 0, 0, 3, 3, 0, 4, 1, 0, 0, 5, 3, 0, 3, 5, 3, 2, 9, 4, 12, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteSource{b: data}
		cfg := fuzzConfig(s)
		tw := newTwin(t, cfg)
		// The stream: 1–12 requests over 48 lines, stores and flushes
		// among the loads.
		iter := make([]streamOp, 1+s.next()%12)
		for i := range iter {
			iter[i].pa = uint64(s.next()%48) << lineShift
			iter[i].kind = []uint8{0, 0, 0, 0, 0, opWrite, opWrite, opFlush}[s.next()%8]
		}
		// Interruptions: about one request in 2^(gap+4), from a stream
		// seeded by the input.
		gap := uint(s.next() % 5)
		rng := sim.NewRand(uint64(s.next())<<8 | uint64(s.next()))
		runStream(tw, iter, 1200/len(iter)+8, func(int) (int, uint64, bool) {
			if rng.Uint64n(1<<(gap+4)) != 0 {
				return 0, 0, false
			}
			return rng.Intn(5), rng.Uint64n(64) << lineShift, true
		})
		if !tw.rep.rp.on && tw.rep.rp.served != 0 {
			t.Fatalf("replay served %d requests on a configuration it does not support", tw.rep.rp.served)
		}
	})
}

// TestReplayDeterministicStreams runs fixed periodic streams through the
// twin and requires replay to engage, including on requests that write a
// dirty line back, so the replayed writeback path is exercised every run.
func TestReplayDeterministicStreams(t *testing.T) {
	sb := SandyBridgeConfig()
	// Stores to 22 lines congruent in every Sandy Bridge level, each
	// followed by a load 4 KB on, which shares only its L1 set. The loads
	// push the stored lines out of L1 while L2 still holds them, so the
	// dirty data moves down and leaves the LLC as writebacks. 22 fills are
	// one round of the LLC's Bit-PLRU victim sequence, so replay finds a
	// cycle within a few passes.
	probe, _ := NewHierarchy(sb, &logMem{})
	var stores []streamOp
	for i := uint64(0); i < 128 && len(stores) < 2*22; i++ {
		pa := 0x40_0000 + i<<17
		if len(stores) == 0 || probe.levels[2].Congruent(pa, stores[0].pa) {
			stores = append(stores, streamOp{pa: pa, kind: opWrite}, streamOp{pa: pa + 4096})
		}
	}
	hammer := []streamOp{{pa: 0x1000}, {pa: 0x1000, kind: opFlush}, {pa: 0x9000}, {pa: 0x9000, kind: opFlush}}
	small := HierarchyConfig{FlushLatency: 8, Levels: []LevelConfig{
		{Name: "L1", SizeKB: 1, Ways: 2, Slices: 1, Policy: TrueLRU, Latency: 4, Throughput: 2},
		{Name: "L2", SizeKB: 2, Ways: 4, Slices: 2, Policy: BitPLRU, Latency: 12},
	}}
	mixed := []streamOp{{pa: 0}, {pa: 0x400, kind: opWrite}, {pa: 0x800}, {pa: 0xc00, kind: opWrite},
		{pa: 0x1000}, {pa: 0x400, kind: opFlush}, {pa: 0x1400, kind: opWrite}}
	// All hits on a 4-way Bit-PLRU set whose MRU bits repeat only every
	// 3 passes while its lines never change: the snapshot must hold the
	// replacement word, or replay starts from a false fixpoint and the
	// interrupting misses evict the wrong ways.
	plru := HierarchyConfig{FlushLatency: 8, Levels: []LevelConfig{
		{Name: "L1", SizeKB: 1, Ways: 4, Slices: 1, Policy: BitPLRU, Latency: 4},
		{Name: "L2", SizeKB: 4, Ways: 8, Slices: 1, Policy: TrueLRU, Latency: 12},
	}}
	rotating := []streamOp{{pa: 0}, {pa: 0x100}, {pa: 0x200}, {pa: 0x300}, {pa: 0}}
	cases := []struct {
		name  string
		cfg   HierarchyConfig
		iter  []streamOp
		every int // interrupt every this many requests; 0 never
		wbs   bool
	}{
		{"sandy-bridge dirty evictions", sb, stores, 0, true},
		{"sandy-bridge dirty evictions interrupted", sb, stores, 997, true},
		{"sandy-bridge clflush hammer", sb, hammer, 0, false},
		{"sandy-bridge clflush hammer interrupted", sb, hammer, 13, false},
		{"small mixed", small, mixed, 0, true},
		{"small mixed interrupted", small, mixed, 31, true},
		{"plru rotating hits interrupted", plru, rotating, 37, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tw := newTwin(t, c.cfg)
			runStream(tw, c.iter, 300, func(k int) (int, uint64, bool) {
				if c.every == 0 || k%c.every != c.every-1 {
					return 0, 0, false
				}
				return k / c.every, uint64(k%7) << 12, true
			})
			if tw.applied < 100 {
				t.Errorf("replay served %d requests, want at least 100", tw.applied)
			}
			if c.wbs && tw.appliedWrite == 0 {
				t.Error("no replayed request wrote a line back")
			}
		})
	}
}
