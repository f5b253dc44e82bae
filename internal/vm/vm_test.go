package vm

import (
	"errors"
	"testing"
	"testing/quick"
)

func newAlloc(t *testing.T, bytes uint64, pol AllocPolicy) *Allocator {
	t.Helper()
	a, err := NewAllocator(bytes, pol, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAllocatorFirstFitSequential(t *testing.T) {
	a := newAlloc(t, 64*PageSize, FirstFit)
	for i := uint64(0); i < 8; i++ {
		f, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if f != i {
			t.Errorf("frame %d allocated out of order (got %d)", i, f)
		}
	}
}

func TestAllocatorScatterNotSequential(t *testing.T) {
	a := newAlloc(t, 4096*PageSize, Scatter)
	sequentialRuns := 0
	prev := uint64(0)
	for i := 0; i < 256; i++ {
		f, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && f == prev+1 {
			sequentialRuns++
		}
		prev = f
	}
	if sequentialRuns > 32 {
		t.Errorf("scatter allocator produced %d/255 sequential pairs", sequentialRuns)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := newAlloc(t, 4*PageSize, FirstFit)
	for i := 0; i < 4; i++ {
		if _, err := a.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Alloc(); !errors.Is(err, ErrNoMemory) {
		t.Errorf("exhausted alloc error = %v", err)
	}
	a.Release(2)
	f, err := a.Alloc()
	if err != nil || f != 2 {
		t.Errorf("post-release alloc = (%d, %v), want (2, nil)", f, err)
	}
}

func TestAllocatorContiguous(t *testing.T) {
	a := newAlloc(t, 64*PageSize, Scatter)
	base, err := a.AllocContiguous(16)
	if err != nil {
		t.Fatal(err)
	}
	base2, err := a.AllocContiguous(16)
	if err != nil {
		t.Fatal(err)
	}
	if base2 < base+16 {
		t.Errorf("contiguous ranges overlap: %d and %d", base, base2)
	}
	if _, err := a.AllocContiguous(1000); !errors.Is(err, ErrNoMemory) {
		t.Error("oversized contiguous alloc should fail")
	}
	if _, err := a.AllocContiguous(0); err == nil {
		t.Error("zero-size contiguous alloc should fail")
	}
}

func TestAllocatorFreeFramesAccounting(t *testing.T) {
	a := newAlloc(t, 16*PageSize, FirstFit)
	if a.FreeFrames() != 16 {
		t.Fatalf("FreeFrames = %d, want 16", a.FreeFrames())
	}
	f, _ := a.Alloc()
	if a.FreeFrames() != 15 {
		t.Fatalf("FreeFrames = %d, want 15", a.FreeFrames())
	}
	a.Release(f)
	if a.FreeFrames() != 16 {
		t.Fatalf("FreeFrames = %d, want 16", a.FreeFrames())
	}
}

func TestAddressSpaceMapTranslate(t *testing.T) {
	a := newAlloc(t, 1024*PageSize, FirstFit)
	s := NewAddressSpace(a)
	if err := s.Map(0x10000, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	pa, err := s.Translate(0x10000 + 123)
	if err != nil {
		t.Fatal(err)
	}
	if pa%PageSize != 123 {
		t.Errorf("offset not preserved: %#x", pa)
	}
	// Unmapped access page-faults.
	if _, err := s.Translate(0x90000); !errors.Is(err, ErrUnmapped) {
		t.Errorf("unmapped translate error = %v", err)
	}
	if !s.Mapped(0x10000) || s.Mapped(0x90000) {
		t.Error("Mapped() inconsistent")
	}
	if s.PageCount() != 4 {
		t.Errorf("PageCount = %d, want 4", s.PageCount())
	}
}

func TestAddressSpaceRejectsBadMappings(t *testing.T) {
	a := newAlloc(t, 1024*PageSize, FirstFit)
	s := NewAddressSpace(a)
	if err := s.Map(0x10001, PageSize); err == nil {
		t.Error("unaligned map accepted")
	}
	if err := s.Map(0x10000, 0); err == nil {
		t.Error("empty map accepted")
	}
	if err := s.Map(0x10000, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Map(0x10000, PageSize); err == nil {
		t.Error("double map accepted")
	}
}

func TestAddressSpaceMapContiguousIsContiguous(t *testing.T) {
	a := newAlloc(t, 4096*PageSize, Scatter)
	s := NewAddressSpace(a)
	if err := s.MapContiguous(0x200000, 32*PageSize); err != nil {
		t.Fatal(err)
	}
	base, err := s.Translate(0x200000)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i < 32; i++ {
		pa, err := s.Translate(0x200000 + i*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if pa != base+i*PageSize {
			t.Fatalf("page %d not contiguous: %#x vs base %#x", i, pa, base)
		}
	}
}

func TestAddressSpaceScatterIsNotContiguous(t *testing.T) {
	a := newAlloc(t, 4096*PageSize, Scatter)
	s := NewAddressSpace(a)
	if err := s.Map(0x200000, 64*PageSize); err != nil {
		t.Fatal(err)
	}
	contig := 0
	prev, _ := s.Translate(0x200000)
	for i := uint64(1); i < 64; i++ {
		pa, _ := s.Translate(0x200000 + i*PageSize)
		if pa == prev+PageSize {
			contig++
		}
		prev = pa
	}
	if contig > 16 {
		t.Errorf("scattered mapping had %d/63 contiguous pairs", contig)
	}
}

func TestAddressSpaceUnmapReleasesFrames(t *testing.T) {
	a := newAlloc(t, 8*PageSize, FirstFit)
	s := NewAddressSpace(a)
	if err := s.Map(0, 8*PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Map(0x100000, PageSize); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("expected exhaustion, got %v", err)
	}
	s.Unmap(0, 4*PageSize)
	if err := s.Map(0x100000, 4*PageSize); err != nil {
		t.Errorf("map after unmap failed: %v", err)
	}
	// TLB must not serve stale translations.
	if _, err := s.Translate(0); !errors.Is(err, ErrUnmapped) {
		t.Error("stale TLB entry served an unmapped page")
	}
}

func TestMapRollbackOnExhaustion(t *testing.T) {
	a := newAlloc(t, 4*PageSize, FirstFit)
	s := NewAddressSpace(a)
	if err := s.Map(0, 8*PageSize); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("expected exhaustion, got %v", err)
	}
	if s.PageCount() != 0 {
		t.Errorf("partial mapping left behind: %d pages", s.PageCount())
	}
	if a.FreeFrames() != 4 {
		t.Errorf("frames leaked: %d free, want 4", a.FreeFrames())
	}
}

func TestTranslateProperty(t *testing.T) {
	a := newAlloc(t, 1<<20, FirstFit) // 256 frames
	s := NewAddressSpace(a)
	if err := s.Map(0, 128*PageSize); err != nil {
		t.Fatal(err)
	}
	// Property: page offset always preserved, and the same VA always maps
	// to the same PA (TLB coherence).
	err := quick.Check(func(off uint32) bool {
		va := uint64(off) % (128 * PageSize)
		pa1, err1 := s.Translate(va)
		pa2, err2 := s.Translate(va)
		return err1 == nil && err2 == nil && pa1 == pa2 && pa1%PageSize == va%PageSize
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestPagemapRestriction(t *testing.T) {
	a := newAlloc(t, 1<<20, FirstFit)
	s := NewAddressSpace(a)
	if err := s.Map(0, PageSize); err != nil {
		t.Fatal(err)
	}
	open := &Pagemap{}
	if _, err := open.Query(s, 100); err != nil {
		t.Errorf("open pagemap query failed: %v", err)
	}
	restricted := &Pagemap{Restricted: true}
	if _, err := restricted.Query(s, 100); !errors.Is(err, ErrPagemapRestricted) {
		t.Errorf("restricted pagemap error = %v", err)
	}
}

func TestNewAllocatorTooSmall(t *testing.T) {
	if _, err := NewAllocator(100, FirstFit, 0); err == nil {
		t.Error("tiny memory accepted")
	}
}

func TestMapFramesSharing(t *testing.T) {
	a := newAlloc(t, 1<<20, FirstFit)
	s1 := NewAddressSpace(a)
	s2 := NewAddressSpace(a)
	if err := s1.Map(0x10000, PageSize); err != nil {
		t.Fatal(err)
	}
	frame, err := s1.FrameOf(0x10000)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.MapFrames(0x50000, []uint64{frame}); err != nil {
		t.Fatal(err)
	}
	pa1, _ := s1.Translate(0x10000 + 64)
	pa2, _ := s2.Translate(0x50000 + 64)
	if pa1 != pa2 {
		t.Errorf("shared mapping resolves differently: %#x vs %#x", pa1, pa2)
	}
}

func TestMapFramesRejectsBadInput(t *testing.T) {
	a := newAlloc(t, 1<<20, FirstFit)
	s := NewAddressSpace(a)
	if err := s.MapFrames(0x10001, []uint64{1}); err == nil {
		t.Error("unaligned MapFrames accepted")
	}
	if err := s.MapFrames(0x10000, nil); err == nil {
		t.Error("empty MapFrames accepted")
	}
	if err := s.MapFrames(0x10000, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.MapFrames(0x10000, []uint64{2}); err == nil {
		t.Error("overlapping MapFrames accepted")
	}
}

func TestFrameOfUnmapped(t *testing.T) {
	a := newAlloc(t, 1<<20, FirstFit)
	s := NewAddressSpace(a)
	if _, err := s.FrameOf(0x999000); err == nil {
		t.Error("FrameOf on unmapped page succeeded")
	}
}

// TestTranslationCacheKeepsHammerStrides pins the translation cache's
// index against the strides hammer loops use: double-sided aggressors 64
// pages apart and eviction-set pages multiples of 32 pages apart. A
// vpn % size index folds all of them onto one or two entries, so every
// translation fell through to the page map.
func TestTranslationCacheKeepsHammerStrides(t *testing.T) {
	const base = 0x7000_0000 // the attack buffer's base address
	a := newAlloc(t, 64<<20, FirstFit)
	s := NewAddressSpace(a)
	if err := s.Map(base, 16<<20); err != nil {
		t.Fatal(err)
	}
	var vas []uint64
	for k := uint64(0); k < 16; k++ {
		vas = append(vas, base+k*32*PageSize) // 32 pages apart
	}
	for k := uint64(0); k < 16; k++ {
		vas = append(vas, base+(1024+k*64)*PageSize) // 64 pages apart
	}
	for round := 0; round < 3; round++ {
		// Alternate between the two strides, as a hammer iteration does.
		for i := 0; i < 16; i++ {
			for _, va := range []uint64{vas[i], vas[16+i]} {
				if _, err := s.Translate(va); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, va := range vas {
			vpn := va >> pageShift
			if s.tlb[tlbSlot(vpn)].tag != vpn+1 {
				t.Fatalf("round %d: page %#x is not cached; its entry holds tag %#x",
					round, vpn, s.tlb[tlbSlot(vpn)].tag)
			}
		}
	}
}

// TestGenMovesOnEveryMutator pins the generation the batched core keys its
// translated request rings by: every Map, MapContiguous, MapFrames and
// Unmap call moves it, a failed one too, and no translation does.
func TestGenMovesOnEveryMutator(t *testing.T) {
	s := NewAddressSpace(newAlloc(t, 64*PageSize, FirstFit))
	frame := uint64(40)
	mutators := []struct {
		name string
		fn   func() error
	}{
		{"Map", func() error { return s.Map(0, 2*PageSize) }},
		{"MapContiguous", func() error { return s.MapContiguous(8*PageSize, 2*PageSize) }},
		{"MapFrames", func() error { return s.MapFrames(16*PageSize, []uint64{frame}) }},
		{"Map over a mapped page", func() error { s.Map(0, PageSize); return nil }},
		{"Unmap", func() error { s.Unmap(0, PageSize); return nil }},
		{"Unmap of nothing mapped", func() error { s.Unmap(32*PageSize, PageSize); return nil }},
		{"Map again", func() error { return s.Map(0, PageSize) }},
	}
	for _, m := range mutators {
		g := s.Gen()
		if err := m.fn(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if s.Gen() == g {
			t.Errorf("%s left the generation at %d", m.name, g)
		}
		g = s.Gen()
		for _, va := range []uint64{0, PageSize + 8, 8 * PageSize, 16 * PageSize, 32 * PageSize} {
			s.Translate(va)
			s.Mapped(va)
			s.FrameOf(va)
		}
		if s.Gen() != g {
			t.Errorf("after %s: translating moved the generation from %d to %d", m.name, g, s.Gen())
		}
	}
}
