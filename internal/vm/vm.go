// Package vm provides the virtual-memory substrate: a physical frame
// allocator, per-process address spaces with page tables and a small TLB,
// and the /proc/pagemap query interface that the CLFLUSH-free attack uses to
// build eviction sets (and that the kernel later restricted, §5.2.1).
package vm

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// PageSize is the (small) page size in bytes.
const PageSize = 4096

const pageShift = 12

// AllocPolicy selects how the allocator hands out physical frames.
type AllocPolicy int

const (
	// FirstFit allocates the lowest free frame, so fresh mappings are
	// mostly physically contiguous (a freshly booted machine, or
	// transparent huge pages). The paper's attack setup effectively had
	// contiguous physical buffers.
	FirstFit AllocPolicy = iota
	// Scatter allocates frames in a seeded pseudo-random order, modelling a
	// fragmented system where the attacker genuinely needs pagemap to
	// discover physical placement.
	Scatter
)

// ErrNoMemory is returned when the allocator is exhausted.
var ErrNoMemory = errors.New("vm: out of physical memory")

// ErrUnmapped is returned when translating an unmapped virtual address.
var ErrUnmapped = errors.New("vm: page fault: address not mapped")

// ErrPagemapRestricted is returned by pagemap queries after the kernel
// mitigation that forbids user-space access to /proc/pagemap.
var ErrPagemapRestricted = errors.New("vm: pagemap access restricted by kernel policy")

// Allocator hands out physical page frames from a fixed-size memory.
type Allocator struct {
	frames uint64
	free   []uint64 // stack of free frame numbers
	next   uint64   // next never-used frame (FirstFit fast path)
	policy AllocPolicy
	rng    *sim.Rand
}

// NewAllocator builds an allocator over memBytes of physical memory.
func NewAllocator(memBytes uint64, policy AllocPolicy, seed uint64) (*Allocator, error) {
	if memBytes < PageSize {
		return nil, fmt.Errorf("vm: memory too small: %d bytes", memBytes)
	}
	return &Allocator{
		frames: memBytes / PageSize,
		policy: policy,
		rng:    sim.NewRand(seed),
	}, nil
}

// FreeFrames reports how many frames are currently unallocated.
func (a *Allocator) FreeFrames() uint64 {
	return uint64(len(a.free)) + (a.frames - a.next)
}

// Alloc returns one free physical frame number.
func (a *Allocator) Alloc() (uint64, error) {
	if len(a.free) > 0 {
		// Pop from the free stack; Scatter pops a random element.
		i := len(a.free) - 1
		if a.policy == Scatter && len(a.free) > 1 {
			j := a.rng.Intn(len(a.free))
			a.free[i], a.free[j] = a.free[j], a.free[i]
		}
		f := a.free[i]
		a.free = a.free[:i]
		return f, nil
	}
	if a.next >= a.frames {
		return 0, ErrNoMemory
	}
	if a.policy == Scatter {
		// Lazily materialise a shuffled window so allocations are not
		// sequential even on a fresh allocator.
		const window = 1024
		n := min(window, int(a.frames-a.next))
		base := a.next
		a.next += uint64(n)
		for _, i := range a.rng.Perm(n) {
			a.free = append(a.free, base+uint64(i))
		}
		return a.Alloc()
	}
	f := a.next
	a.next++
	return f, nil
}

// AllocContiguous returns the first frame of n physically consecutive
// frames. Only never-used frames are considered (no compaction), which is
// how real kernels satisfy huge-page requests from fresh zones.
func (a *Allocator) AllocContiguous(n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("vm: AllocContiguous(%d)", n)
	}
	if a.next+uint64(n) > a.frames {
		return 0, ErrNoMemory
	}
	f := a.next
	a.next += uint64(n)
	return f, nil
}

// Release returns a frame to the allocator.
func (a *Allocator) Release(frame uint64) {
	a.free = append(a.free, frame)
}

// The translation cache is a host-side memo of the page map, not a modelled
// TLB: translation costs no simulated time, so its size and indexing move no
// output byte, only the simulator's speed.
const (
	tlbBits = 8
	tlbSize = 1 << tlbBits // direct-mapped translation cache per address space
)

// tlbSlot indexes the translation cache with a multiplicative (Fibonacci)
// hash of the virtual page number. Hammer pages sit at power-of-two strides
// (double-sided aggressors 64 pages apart, eviction-set pages multiples of
// 32 pages apart), which a vpn % tlbSize index folds onto one or two slots.
func tlbSlot(vpn uint64) uint64 { return vpn * 0x9e3779b97f4a7c15 >> (64 - tlbBits) }

// AddressSpace is one process's virtual address space.
type AddressSpace struct {
	alloc *Allocator
	pages map[uint64]uint64 // virtual page number -> physical frame number
	tlb   [tlbSize]tlbEntry
	gen   uint64 // bumped by every mutator; see Gen
}

type tlbEntry struct {
	tag   uint64 // vpn+1; 0 marks an empty entry
	frame uint64
}

// NewAddressSpace creates an empty address space backed by the allocator.
func NewAddressSpace(alloc *Allocator) *AddressSpace {
	return &AddressSpace{alloc: alloc, pages: make(map[uint64]uint64)}
}

// Gen reports the address space's generation: every call to Map,
// MapContiguous, MapFrames or Unmap moves it, failed ones included, and
// nothing else does. A translation made at one generation holds for as long
// as Gen returns it.
func (s *AddressSpace) Gen() uint64 { return s.gen }

// Map allocates backing frames for [va, va+bytes). va must be page-aligned.
// Frames come one page at a time from the allocator (ordinary mmap).
func (s *AddressSpace) Map(va, bytes uint64) error {
	return s.mapPages(va, bytes, false)
}

// MapContiguous is Map but with physically consecutive frames, modelling a
// huge-page or CMA allocation.
func (s *AddressSpace) MapContiguous(va, bytes uint64) error {
	return s.mapPages(va, bytes, true)
}

func (s *AddressSpace) mapPages(va, bytes uint64, contiguous bool) error {
	s.gen++
	if va%PageSize != 0 {
		return fmt.Errorf("vm: unaligned mapping at %#x", va)
	}
	if bytes == 0 {
		return fmt.Errorf("vm: empty mapping at %#x", va)
	}
	n := int((bytes + PageSize - 1) / PageSize)
	vpn := va >> pageShift
	for i := 0; i < n; i++ {
		if _, ok := s.pages[vpn+uint64(i)]; ok {
			return fmt.Errorf("vm: page %#x already mapped", (vpn+uint64(i))<<pageShift)
		}
	}
	if contiguous {
		base, err := s.alloc.AllocContiguous(n)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			s.pages[vpn+uint64(i)] = base + uint64(i)
		}
		return nil
	}
	for i := 0; i < n; i++ {
		f, err := s.alloc.Alloc()
		if err != nil {
			// Roll back the partial mapping.
			for j := 0; j < i; j++ {
				s.alloc.Release(s.pages[vpn+uint64(j)])
				delete(s.pages, vpn+uint64(j))
			}
			return err
		}
		s.pages[vpn+uint64(i)] = f
	}
	return nil
}

// MapFrames maps specific physical frames at va (page-aligned), modelling
// shared memory: two address spaces mapping the same frames (a shared
// library, a mapped file) see the same cache lines — the substrate of
// Flush+Reload-style side channels. The frames are not owned: Unmap will
// release them back to the allocator, so share only frames whose lifetime
// the caller manages.
func (s *AddressSpace) MapFrames(va uint64, frames []uint64) error {
	s.gen++
	if va%PageSize != 0 {
		return fmt.Errorf("vm: unaligned mapping at %#x", va)
	}
	if len(frames) == 0 {
		return fmt.Errorf("vm: empty frame list at %#x", va)
	}
	vpn := va >> pageShift
	for i := range frames {
		if _, ok := s.pages[vpn+uint64(i)]; ok {
			return fmt.Errorf("vm: page %#x already mapped", (vpn+uint64(i))<<pageShift)
		}
	}
	for i, f := range frames {
		s.pages[vpn+uint64(i)] = f
	}
	return nil
}

// FrameOf returns the physical frame backing va, for sharing with another
// address space.
func (s *AddressSpace) FrameOf(va uint64) (uint64, error) {
	pa, err := s.Translate(va)
	if err != nil {
		return 0, err
	}
	return pa >> pageShift, nil
}

// Unmap releases the pages backing [va, va+bytes). Unmapped pages in the
// range are ignored.
func (s *AddressSpace) Unmap(va, bytes uint64) {
	s.gen++
	n := (bytes + PageSize - 1) / PageSize
	vpn := va >> pageShift
	for i := uint64(0); i < n; i++ {
		if f, ok := s.pages[vpn+i]; ok {
			s.alloc.Release(f)
			delete(s.pages, vpn+i)
		}
	}
	s.tlb = [tlbSize]tlbEntry{}
}

// Translate resolves a virtual address to a physical address.
func (s *AddressSpace) Translate(va uint64) (uint64, error) {
	vpn := va >> pageShift
	e := &s.tlb[tlbSlot(vpn)]
	if e.tag == vpn+1 {
		return e.frame<<pageShift | va&(PageSize-1), nil
	}
	f, ok := s.pages[vpn]
	if !ok {
		return 0, fmt.Errorf("%w: va %#x", ErrUnmapped, va)
	}
	*e = tlbEntry{tag: vpn + 1, frame: f}
	return f<<pageShift | va&(PageSize-1), nil
}

// Mapped reports whether va is mapped.
func (s *AddressSpace) Mapped(va uint64) bool {
	_, ok := s.pages[va>>pageShift]
	return ok
}

// PageCount reports the number of mapped pages.
func (s *AddressSpace) PageCount() int { return len(s.pages) }

// Pagemap is the /proc/pagemap equivalent: user-visible VA->PA queries.
// The Restricted flag models the post-rowhammer kernel patch that denies
// the interface to user space.
type Pagemap struct {
	Restricted bool
}

// Query resolves va in the given address space, subject to the restriction
// policy.
func (p *Pagemap) Query(s *AddressSpace, va uint64) (uint64, error) {
	if p.Restricted {
		return 0, ErrPagemapRestricted
	}
	return s.Translate(va)
}
