package cache

import (
	"testing"

	"repro/internal/sim"
)

// memStub counts memory accesses beneath the hierarchy.
type memStub struct {
	reads, writes int
	latency       sim.Cycles
}

func (m *memStub) Access(pa uint64, write bool, now sim.Cycles) sim.Cycles {
	if write {
		m.writes++
	} else {
		m.reads++
	}
	return m.latency
}

func newTestHierarchy(t *testing.T) (*Hierarchy, *memStub) {
	t.Helper()
	mem := &memStub{latency: 150}
	h, err := NewHierarchy(SandyBridgeConfig(), mem)
	if err != nil {
		t.Fatal(err)
	}
	return h, mem
}

func TestLevelConfigValidate(t *testing.T) {
	bad := []LevelConfig{
		{Name: "a", SizeKB: 0, Ways: 8, Slices: 1},
		{Name: "b", SizeKB: 32, Ways: 0, Slices: 1},
		{Name: "c", SizeKB: 32, Ways: 8, Slices: 0},
		{Name: "d", SizeKB: 33, Ways: 8, Slices: 1}, // non power-of-two sets
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestLevelBasicHitMiss(t *testing.T) {
	l, err := NewLevel(LevelConfig{Name: "t", SizeKB: 32, Ways: 8, Slices: 1, Policy: TrueLRU, Latency: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Access(0x1000, false) {
		t.Error("cold access hit")
	}
	l.Fill(0x1000, false)
	if !l.Access(0x1000, false) {
		t.Error("filled line missed")
	}
	if !l.Access(0x1000+LineSize-1, false) {
		t.Error("same-line offset missed")
	}
	if l.Access(0x1000+LineSize, false) {
		t.Error("adjacent line hit")
	}
	st := l.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLevelEvictionAndDirty(t *testing.T) {
	// 64 sets, 2 ways: tiny cache to force evictions.
	l, err := NewLevel(LevelConfig{Name: "t", SizeKB: 8, Ways: 2, Slices: 1, Policy: TrueLRU, Latency: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	setStride := uint64(l.Sets() * LineSize)
	a, b, c := uint64(0), setStride, 2*setStride // all map to set 0
	l.Fill(a, true)                              // dirty
	l.Fill(b, false)
	ev, evicted := l.Fill(c, false)
	if !evicted {
		t.Fatal("third fill into 2-way set did not evict")
	}
	if ev.PA != a || !ev.Dirty {
		t.Errorf("evicted %+v, want dirty line at %#x", ev, a)
	}
}

func TestLevelInvalidate(t *testing.T) {
	l, err := NewLevel(LevelConfig{Name: "t", SizeKB: 8, Ways: 2, Slices: 1, Policy: TrueLRU, Latency: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Fill(0x40, true)
	present, dirty := l.Invalidate(0x40)
	if !present || !dirty {
		t.Errorf("invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if l.Lookup(0x40) {
		t.Error("line still present after invalidate")
	}
	present, _ = l.Invalidate(0x40)
	if present {
		t.Error("double invalidate reported present")
	}
}

func TestSlicingSplitsAddresses(t *testing.T) {
	cfg := SandyBridgeConfig().Levels[2]
	l, err := NewLevel(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for i := 0; i < 4096; i++ {
		pa := uint64(i) * 64 * 131 // scatter
		s := l.SliceOf(pa)
		if s < 0 || s >= cfg.Slices {
			t.Fatalf("slice %d out of range", s)
		}
		counts[s]++
	}
	if len(counts) != cfg.Slices {
		t.Fatalf("only %d slices used", len(counts))
	}
	for s, n := range counts {
		if n < 4096/cfg.Slices/2 {
			t.Errorf("slice %d badly underloaded: %d", s, n)
		}
	}
}

func TestCongruentRequiresSameSetAndSlice(t *testing.T) {
	cfg := SandyBridgeConfig().Levels[2]
	l, err := NewLevel(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := uint64(0x100000)
	stride := uint64(l.Sets() * LineSize)
	found := 0
	for i := uint64(1); i < 64; i++ {
		cand := base + i*stride
		if l.SetOf(cand) != l.SetOf(base) {
			t.Fatalf("stride %d changed the set index", stride)
		}
		if l.Congruent(base, cand) {
			found++
		}
	}
	if found == 0 {
		t.Error("no congruent addresses found at set stride; slice hash broken?")
	}
	if found == 63 {
		t.Error("every set-stride address congruent; slice hash is a no-op")
	}
}

func TestHierarchyMissGoesToMemoryOnce(t *testing.T) {
	h, mem := newTestHierarchy(t)
	res := h.Access(0x4000, false, 0)
	if res.Source != SrcDRAM || !res.LLCMiss {
		t.Errorf("cold access: %+v", res)
	}
	if mem.reads != 1 {
		t.Errorf("memory reads = %d, want 1", mem.reads)
	}
	if res.Latency <= 150 {
		t.Errorf("latency %d should include LLC probe + memory", res.Latency)
	}
	res = h.Access(0x4000, false, 100)
	if res.Source != SrcL1 {
		t.Errorf("second access source = %v, want L1", res.Source)
	}
	if mem.reads != 1 {
		t.Errorf("second access went to memory")
	}
}

func TestHierarchyInclusionOnLLCHit(t *testing.T) {
	h, _ := newTestHierarchy(t)
	h.Access(0x8000, false, 0)
	// Evict from L1 by filling its set, leaving the line in L2/L3.
	l1 := h.Level(0)
	setStride := uint64(l1.Sets() * LineSize)
	for i := uint64(1); i <= 8; i++ {
		h.Access(0x8000+i*setStride*37, false, 0) // different L1 sets mostly
	}
	// Force: access 8 conflicting lines in 0x8000's L1 set.
	for i := uint64(1); i <= 8; i++ {
		h.Access(0x8000+i*setStride, false, 0)
	}
	res := h.Access(0x8000, false, 0)
	if res.Source == SrcDRAM {
		t.Errorf("line lost from the whole hierarchy: %+v", res)
	}
	if res.Source == SrcL1 {
		t.Errorf("line unexpectedly still in L1")
	}
}

func TestHierarchyWritebackOnDirtyEviction(t *testing.T) {
	mem := &memStub{latency: 150}
	// Single tiny level so evictions go straight to memory.
	h, err := NewHierarchy(HierarchyConfig{
		Levels:       []LevelConfig{{Name: "only", SizeKB: 8, Ways: 2, Slices: 1, Policy: TrueLRU, Latency: 4}},
		FlushLatency: 10,
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	sets := h.Level(0).Sets()
	stride := uint64(sets * LineSize)
	h.Access(0, true, 0) // dirty store
	h.Access(stride, false, 0)
	h.Access(2*stride, false, 0) // evicts the dirty line
	if mem.writes != 1 {
		t.Errorf("memory writes = %d, want 1 (dirty writeback)", mem.writes)
	}
}

func TestHierarchyFlush(t *testing.T) {
	h, mem := newTestHierarchy(t)
	h.Access(0xC000, true, 0)
	if !h.Contains(0xC000) {
		t.Fatal("line not resident after access")
	}
	lat, wb := h.Flush(0xC000, 10)
	if lat != SandyBridgeConfig().FlushLatency {
		t.Errorf("flush latency = %d", lat)
	}
	if wb != 1 || mem.writes != 1 {
		t.Errorf("flush of dirty line: wb=%d memWrites=%d, want 1/1", wb, mem.writes)
	}
	if h.Contains(0xC000) {
		t.Error("line still resident after flush")
	}
	// Next access must go to DRAM again — the hammering primitive.
	res := h.Access(0xC000, false, 20)
	if res.Source != SrcDRAM {
		t.Errorf("post-flush access source = %v, want DRAM", res.Source)
	}
	// Flushing a clean or absent line writes nothing.
	if _, wb := h.Flush(0xF000, 30); wb != 0 {
		t.Error("flush of absent line wrote back")
	}
}

func TestHierarchyLLCBackInvalidation(t *testing.T) {
	// Build a hierarchy with a tiny LLC so we can evict deterministically,
	// and a large L1 so the victim line stays in L1 until back-invalidated.
	mem := &memStub{latency: 150}
	h, err := NewHierarchy(HierarchyConfig{
		Levels: []LevelConfig{
			{Name: "L1", SizeKB: 32, Ways: 8, Slices: 1, Policy: TrueLRU, Latency: 4},
			{Name: "LLC", SizeKB: 8, Ways: 2, Slices: 1, Policy: TrueLRU, Latency: 20},
		},
		FlushLatency: 10,
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	llc := h.Level(1)
	stride := uint64(llc.Sets() * LineSize)
	base := uint64(0)
	h.Access(base, false, 0)
	h.Access(base+stride, false, 0)
	h.Access(base+2*stride, false, 0) // LLC eviction of base
	if h.Contains(base) {
		t.Error("inclusive hierarchy kept an LLC-evicted line in L1")
	}
	res := h.Access(base, false, 100)
	if res.Source != SrcDRAM {
		t.Errorf("re-access source = %v, want DRAM (line was back-invalidated)", res.Source)
	}
}

func TestHierarchyStoresAllocateAndDirty(t *testing.T) {
	h, mem := newTestHierarchy(t)
	h.Access(0x2000, true, 0)
	if mem.reads != 1 || mem.writes != 0 {
		t.Errorf("store miss: reads=%d writes=%d, want RFO read only", mem.reads, mem.writes)
	}
	lat, wb := h.Flush(0x2000, 10)
	_ = lat
	if wb != 1 {
		t.Error("store did not dirty the line")
	}
	st := h.Stats()
	if st.Stores != 1 || st.Loads != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHierarchyErrors(t *testing.T) {
	if _, err := NewHierarchy(HierarchyConfig{}, &memStub{}); err == nil {
		t.Error("empty hierarchy accepted")
	}
	if _, err := NewHierarchy(SandyBridgeConfig(), nil); err == nil {
		t.Error("nil memory accepted")
	}
	bad := SandyBridgeConfig()
	bad.Levels[0].Ways = 0
	if _, err := NewHierarchy(bad, &memStub{}); err == nil {
		t.Error("bad level accepted")
	}
}

func TestBackToBackHitsPipeline(t *testing.T) {
	h, _ := newTestHierarchy(t)
	cfg := SandyBridgeConfig().Levels[0]
	h.Access(0x1000, false, 0) // cold fills
	h.Access(0x1040, false, 5)
	first := h.Access(0x1000, false, 10)  // L1 hit after a DRAM fill: full latency
	second := h.Access(0x1040, false, 20) // L1 hit right after an L1 hit
	if first.Latency != cfg.Latency {
		t.Errorf("post-miss hit latency %d, want full latency %d", first.Latency, cfg.Latency)
	}
	if second.Latency != cfg.Throughput {
		t.Errorf("back-to-back L1 hit cost %d, want throughput %d", second.Latency, cfg.Throughput)
	}
	// A miss resets the pipeline.
	h.Access(0x90000, false, 30)
	if h.Access(0x1000, false, 40); h.lastHit != 0 {
		t.Error("lastHit not tracking L1")
	}
}

func TestResidentWays(t *testing.T) {
	l, err := NewLevel(LevelConfig{Name: "t", SizeKB: 8, Ways: 2, Slices: 1, Policy: TrueLRU, Latency: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stride := uint64(l.Sets() * LineSize)
	if l.ResidentWays(0) != 0 {
		t.Error("empty set reports residents")
	}
	l.Fill(0, false)
	l.Fill(stride, false)
	if l.ResidentWays(0) != 2 {
		t.Errorf("ResidentWays = %d, want 2", l.ResidentWays(0))
	}
}

func TestSandyBridgeConfigAndSourceStrings(t *testing.T) {
	h, err := NewHierarchy(SandyBridgeConfig(), &memStub{latency: 100})
	if err != nil {
		t.Fatal(err)
	}
	if h.LLC().Config().Ways != 12 {
		t.Errorf("LLC ways = %d", h.LLC().Config().Ways)
	}
	for src, want := range map[DataSource]string{
		SrcL1: "L1", SrcL2: "L2", SrcL3: "L3", SrcDRAM: "DRAM",
	} {
		if src.String() != want {
			t.Errorf("%d.String() = %q", src, src.String())
		}
	}
	if DataSource(9).String() != "DataSource(9)" {
		t.Error("unknown source string")
	}
}

// TestHierarchyDirtyInnerVictimReachesMemory stores to 22 lines congruent
// in every Sandy Bridge level, 40 times over. L1 and L2 evict in lockstep,
// so the dirty line an L1 fill evicts has already left L2 in the same fill;
// its data must still move down to the LLC and, when the LLC evicts the
// line, to memory. Every line is stored to, so every LLC eviction writes
// back.
func TestHierarchyDirtyInnerVictimReachesMemory(t *testing.T) {
	h, mem := newTestHierarchy(t)
	var lines []uint64
	for i := uint64(0); len(lines) < 22; i++ {
		pa := 0x40_0000 + i<<17
		if len(lines) == 0 || h.LLC().Congruent(pa, lines[0]) {
			lines = append(lines, pa)
		}
	}
	for pass := 0; pass < 40; pass++ {
		for _, pa := range lines {
			h.Access(pa, true, 0)
		}
	}
	ev := h.LLC().Stats().Evictions
	if st := h.Stats(); ev == 0 || st.MemWrites != ev || uint64(mem.writes) != ev {
		t.Errorf("LLC evicted %d stored lines; memory writes: %d counted, %d reached memory; want one per eviction",
			ev, st.MemWrites, mem.writes)
	}
}

// TestOneWayBitPLRUEvicts drives a 1-way Bit-PLRU level through
// evictions: its one way is every victim, as bitPLRUPolicy.Victim says.
func TestOneWayBitPLRUEvicts(t *testing.T) {
	l, err := NewLevel(LevelConfig{Name: "dm", SizeKB: 1, Ways: 1, Slices: 1, Policy: BitPLRU, Latency: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := MustPolicy(BitPLRU, 1, nil)
	stride := uint64(l.Sets() * LineSize)
	for i := uint64(0); i < 8; i++ {
		pa := i * stride
		ev, evicted := l.Fill(pa, i%2 == 0)
		p.Touch(0)
		if evicted != (i > 0) || evicted && (ev.PA != pa-stride || ev.Dirty != (i%2 == 1)) {
			t.Fatalf("fill %d evicted %+v (%v), want line %#x dirty %v", i, ev, evicted, pa-stride, i%2 == 1)
		}
		if !l.Access(pa, false) {
			t.Fatalf("fill %d: line %#x missing", i, pa)
		}
		if v, want := l.victim(l.setIndex(pa)), p.Victim(); v != want {
			t.Fatalf("fill %d: victim way %d, policy says %d", i, v, want)
		}
	}
	if st := l.Stats(); st.Evictions != 7 || st.Writebacks != 4 {
		t.Errorf("stats %+v, want 7 evictions and 4 writebacks", st)
	}
}
