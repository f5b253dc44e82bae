package attack

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Target designates the victim row the attack tries to flip. The aggressor
// rows are its immediate neighbours (VictimRow±1), per double-sided
// rowhammering; single-sided attacks hammer only VictimRow+1.
type Target struct {
	Bank      int
	VictimRow int
}

// Options configures a hammer program.
type Options struct {
	// Mapper is the attacker's reverse-engineered physical-to-DRAM map.
	Mapper dram.Mapper
	// LLC is the attacker's model of the last-level cache (CLFLUSH-free
	// attack only).
	LLC cache.LevelConfig
	// Target selects the victim row. Ignored when AutoTarget is set.
	Target Target
	// AutoTarget lets the attack pick a victim row from the middle of its
	// own buffer (the way real attacks pick victims from memory they own,
	// then scan for flips).
	AutoTarget bool
	// BufferMB sizes the attack buffer; it must span the target rows.
	BufferMB int
	// Contiguous requests physically contiguous buffer pages (transparent
	// huge pages); otherwise the attack relies purely on pagemap.
	Contiguous bool
	// ExtraDelay inserts compute cycles after each hammer access. Zero for
	// the fastest attack; large values model the "spread out fewer
	// activations across a refresh period" evasion of §4.5.
	ExtraDelay sim.Cycles
}

func (o Options) validate() error {
	if o.Mapper == nil {
		return fmt.Errorf("attack: Options.Mapper is required")
	}
	if o.BufferMB <= 0 {
		return fmt.Errorf("attack: BufferMB must be positive")
	}
	return nil
}

const attackBufBase = uint64(0x7000_0000)

// hammerCore holds state shared by the three attack programs. Progress is a
// single committed-operation counter; iterations and aggressor accesses are
// derived from it, so the per-op and batched paths share one source of
// truth and can never drift.
type hammerCore struct {
	opts       Options
	name       string
	target     Target
	ops        []machine.Op // one iteration
	unrolled   []machine.Op // whole iterations repeated, for contiguous batch views
	execOps    uint64       // operations committed (served by Next or Advance)
	aggPerIter uint64
}

func (h *hammerCore) Name() string { return h.name }

// Victim reports the row the attack is hammering around (available after
// Init; with AutoTarget it is chosen from the attack's own buffer).
func (h *hammerCore) Victim() Target { return h.target }

// resolveTarget applies AutoTarget using the middle of the mapped buffer.
func (h *hammerCore) resolveTarget(xlate translator, bufVA, bufLen uint64) error {
	if !h.opts.AutoTarget {
		h.target = h.opts.Target
		return nil
	}
	pa, err := xlate(bufVA + bufLen/2)
	if err != nil {
		return err
	}
	c := h.opts.Mapper.Map(pa)
	h.target = Target{Bank: c.Bank, VictimRow: c.Row}
	return nil
}

// AggressorAccesses reports how many DRAM-row accesses have been issued to
// the rows adjacent to the victim — the quantity Table 1 reports.
func (h *hammerCore) AggressorAccesses() uint64 { return h.Iterations() * h.aggPerIter }

// Iterations reports completed hammer iterations.
func (h *hammerCore) Iterations() uint64 {
	if len(h.ops) == 0 {
		return 0
	}
	return h.execOps / uint64(len(h.ops))
}

// Next implements machine.Program. A hammer loop never ends.
func (h *hammerCore) Next() machine.Op {
	op := h.ops[h.execOps%uint64(len(h.ops))]
	h.execOps++
	return op
}

// NextRun implements machine.BatchProgram: a contiguous window of the
// unrolled iteration ring starting at the current phase. Nothing is
// committed until Advance.
func (h *hammerCore) NextRun(max int) []machine.Op {
	ringLen := uint64(len(h.unrolled))
	start := h.execOps % ringLen
	end := start + uint64(max)
	if end > ringLen {
		end = ringLen
	}
	return h.unrolled[start:end]
}

// Advance implements machine.BatchProgram.
func (h *hammerCore) Advance(n int) { h.execOps += uint64(n) }

// Period implements machine.PeriodicProgram.
func (h *hammerCore) Period() (uint64, []machine.Op) { return h.execOps, h.ops }

// seal pre-unrolls the iteration into a ring of whole iterations so NextRun
// serves long contiguous views regardless of the iteration length: at least
// the machine.RingIterations a ring-served view spans, and at least
// machine.DefaultBatchCap operations. Called at the end of every attack Init.
func (h *hammerCore) seal() {
	iterLen := len(h.ops)
	copies := max(machine.RingIterations, (machine.DefaultBatchCap+iterLen-1)/iterLen)
	h.unrolled = make([]machine.Op, 0, copies*iterLen)
	for i := 0; i < copies; i++ {
		h.unrolled = append(h.unrolled, h.ops...)
	}
}

// DoubleSidedFlush is the classic CLFLUSH-based double-sided rowhammer
// (Fig. 1a): alternately load and flush addresses in the two rows adjacent
// to the victim.
type DoubleSidedFlush struct {
	hammerCore
}

// NewDoubleSidedFlush builds the attack program.
func NewDoubleSidedFlush(opts Options) (*DoubleSidedFlush, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &DoubleSidedFlush{hammerCore{opts: opts, name: "clflush-hammer"}}, nil
}

// Init implements machine.Program.
func (a *DoubleSidedFlush) Init(p *machine.Proc) error {
	bufLen := uint64(a.opts.BufferMB) << 20
	xlate, err := mapBuffer(p, attackBufBase, bufLen, a.opts.Contiguous)
	if err != nil {
		return err
	}
	if err := a.resolveTarget(xlate, attackBufBase, bufLen); err != nil {
		return err
	}
	t := a.target
	va0, err := findVAInRowCol(a.opts.Mapper, xlate, attackBufBase, bufLen, t.Bank, t.VictimRow-1, -1)
	if err != nil {
		return err
	}
	va1, err := findVAInRowCol(a.opts.Mapper, xlate, attackBufBase, bufLen, t.Bank, t.VictimRow+1, -1)
	if err != nil {
		return err
	}
	a.ops = []machine.Op{
		{Kind: machine.OpLoad, VA: va0},
		{Kind: machine.OpFlush, VA: va0},
		{Kind: machine.OpLoad, VA: va1},
		{Kind: machine.OpFlush, VA: va1},
	}
	if a.opts.ExtraDelay > 0 {
		a.ops = append(a.ops, machine.Op{Kind: machine.OpCompute, Cycles: a.opts.ExtraDelay})
	}
	a.aggPerIter = 2
	a.seal()
	return nil
}

// SingleSidedFlush is single-sided CLFLUSH rowhammering: hammer the row
// above the victim, using a far row in the same bank to close it between
// accesses (the role random addresses played in the original exploits).
type SingleSidedFlush struct {
	hammerCore
}

// NewSingleSidedFlush builds the attack program.
func NewSingleSidedFlush(opts Options) (*SingleSidedFlush, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &SingleSidedFlush{hammerCore{opts: opts, name: "clflush-hammer-1s"}}, nil
}

// Init implements machine.Program.
func (a *SingleSidedFlush) Init(p *machine.Proc) error {
	bufLen := uint64(a.opts.BufferMB) << 20
	xlate, err := mapBuffer(p, attackBufBase, bufLen, a.opts.Contiguous)
	if err != nil {
		return err
	}
	if err := a.resolveTarget(xlate, attackBufBase, bufLen); err != nil {
		return err
	}
	t := a.target
	agg, err := findVAInRowCol(a.opts.Mapper, xlate, attackBufBase, bufLen, t.Bank, t.VictimRow+1, -1)
	if err != nil {
		return err
	}
	// A far row in the same bank closes the aggressor row between accesses.
	far, err := findVAInRowCol(a.opts.Mapper, xlate, attackBufBase, bufLen, t.Bank, t.VictimRow+40, -1)
	if err != nil {
		return err
	}
	a.ops = []machine.Op{
		{Kind: machine.OpLoad, VA: agg},
		{Kind: machine.OpFlush, VA: agg},
		{Kind: machine.OpLoad, VA: far},
		{Kind: machine.OpFlush, VA: far},
	}
	if a.opts.ExtraDelay > 0 {
		a.ops = append(a.ops, machine.Op{Kind: machine.OpCompute, Cycles: a.opts.ExtraDelay})
	}
	a.aggPerIter = 1
	a.seal()
	return nil
}

// ClflushFree is the paper's first-of-its-kind CLFLUSH-free double-sided
// rowhammer (§2.2, Fig. 1b): it evicts the aggressors from the inclusive
// LLC by walking replacement-policy-aware eviction-set patterns, so every
// access to the two aggressor rows reaches DRAM using nothing but loads.
type ClflushFree struct {
	hammerCore
	patX, patY Pattern
}

// NewClflushFree builds the attack program.
func NewClflushFree(opts Options) (*ClflushFree, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.LLC.SizeKB == 0 {
		return nil, fmt.Errorf("attack: CLFLUSH-free attack needs the LLC model (Options.LLC)")
	}
	return &ClflushFree{hammerCore: hammerCore{opts: opts, name: "clflush-free-hammer"}}, nil
}

// Patterns returns the two steady-state access patterns (for inspection
// and tests) once Init has run.
func (a *ClflushFree) Patterns() (x, y Pattern) { return a.patX, a.patY }

// Init implements machine.Program: it builds the eviction sets via pagemap
// and derives the miss-controlled access patterns.
func (a *ClflushFree) Init(p *machine.Proc) error {
	bufLen := uint64(a.opts.BufferMB) << 20
	xlate, err := mapBuffer(p, attackBufBase, bufLen, a.opts.Contiguous)
	if err != nil {
		return err
	}
	spec, err := NewCacheSpec(a.opts.LLC)
	if err != nil {
		return err
	}
	if err := a.resolveTarget(xlate, attackBufBase, bufLen); err != nil {
		return err
	}
	t := a.target
	// Aggressors in different LLC sets so the two eviction patterns do not
	// interfere.
	agg0, err := findVAInRowCol(a.opts.Mapper, xlate, attackBufBase, bufLen, t.Bank, t.VictimRow-1, -1)
	if err != nil {
		return err
	}
	agg0PA, err := xlate(agg0)
	if err != nil {
		return err
	}
	agg1, err := findVAInRowOtherSet(a.opts.Mapper, xlate, spec, attackBufBase, bufLen, t.Bank, t.VictimRow+1, agg0PA)
	if err != nil {
		return err
	}
	// Keep eviction traffic away from the victim neighbourhood: a conflict
	// address in the victim row would refresh it on every iteration.
	avoid := []dram.Coord{
		{Bank: t.Bank, Row: t.VictimRow},
		{Bank: t.Bank, Row: t.VictimRow - 1},
		{Bank: t.Bank, Row: t.VictimRow + 1},
	}
	const exclusion = 2
	esX, err := buildEvictionSet(spec, a.opts.Mapper, xlate, agg0, attackBufBase, bufLen, spec.Ways(), avoid, exclusion)
	if err != nil {
		return err
	}
	esY, err := buildEvictionSet(spec, a.opts.Mapper, xlate, agg1, attackBufBase, bufLen, spec.Ways(), avoid, exclusion)
	if err != nil {
		return err
	}
	a.patX, err = BuildPattern(esX, a.opts.LLC.Policy, spec.Ways())
	if err != nil {
		return err
	}
	a.patY, err = BuildPattern(esY, a.opts.LLC.Policy, spec.Ways())
	if err != nil {
		return err
	}
	for _, va := range a.patX.Iteration() {
		a.ops = append(a.ops, machine.Op{Kind: machine.OpLoad, VA: va})
	}
	for _, va := range a.patY.Iteration() {
		a.ops = append(a.ops, machine.Op{Kind: machine.OpLoad, VA: va})
	}
	if a.opts.ExtraDelay > 0 {
		a.ops = append(a.ops, machine.Op{Kind: machine.OpCompute, Cycles: a.opts.ExtraDelay})
	}
	a.aggPerIter = 2
	a.seal()
	return nil
}

// findVAInRowCol scans the buffer for a virtual address whose physical
// address decodes to the given bank and row, at the given column (col < 0
// accepts any column — needed when scattered allocation gives the attacker
// only part of a row).
func findVAInRowCol(mapper dram.Mapper, xlate translator, bufVA, bufLen uint64, bank, row, col int) (uint64, error) {
	va, ok, err := scanRow(mapper, xlate, bufVA, bufLen, bank, row, func(_ uint64, c dram.Coord) bool {
		return col < 0 || c.Col == col
	})
	if err != nil || ok {
		return va, err
	}
	return 0, fmt.Errorf("attack: no address at bank %d row %d col %d within the buffer", bank, row, col)
}

// scanRow returns the buffer's first line, in address order, whose physical
// address decodes to (bank,row) and passes match. When the mapper keeps
// every page in one bank and row (dram.UniformBlocks), it decodes one line
// per page and passes over a page of another bank or row whole: none of its
// lines could match, so the first match is the same.
func scanRow(mapper dram.Mapper, xlate translator, bufVA, bufLen uint64, bank, row int,
	match func(pa uint64, c dram.Coord) bool) (uint64, bool, error) {
	uniform := dram.UniformBlocks(mapper, vm.PageSize)
	for va := bufVA; va+cache.LineSize <= bufVA+bufLen; va += cache.LineSize {
		pa, err := xlate(va)
		if err != nil {
			return 0, false, err
		}
		c := mapper.Map(pa)
		if c.Bank == bank && c.Row == row {
			if match(pa, c) {
				return va, true, nil
			}
		} else if uniform {
			// On to the first line of the next page.
			end := va | (vm.PageSize - 1)
			va += (end - va) / cache.LineSize * cache.LineSize
		}
	}
	return 0, false, nil
}

var (
	_ machine.PeriodicProgram = (*DoubleSidedFlush)(nil)
	_ machine.PeriodicProgram = (*SingleSidedFlush)(nil)
	_ machine.PeriodicProgram = (*ClflushFree)(nil)
)

// findVAInRowOtherSet scans the buffer for an address in (bank,row) that is
// NOT congruent with avoidPA, so the two aggressors get disjoint eviction
// patterns.
func findVAInRowOtherSet(mapper dram.Mapper, xlate translator, spec *CacheSpec,
	bufVA, bufLen uint64, bank, row int, avoidPA uint64) (uint64, error) {
	va, ok, err := scanRow(mapper, xlate, bufVA, bufLen, bank, row, func(pa uint64, _ dram.Coord) bool {
		return !spec.Congruent(pa, avoidPA)
	})
	if err != nil || ok {
		return va, err
	}
	return 0, fmt.Errorf("attack: no non-congruent address in bank %d row %d within the buffer", bank, row)
}
