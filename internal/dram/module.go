package dram

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/sim"
)

// Config assembles a Module.
type Config struct {
	Geometry Geometry
	Timing   Timing
	Disturb  DisturbConfig
	// Mapper translates physical addresses; nil selects a LinearMapper with
	// bank hashing disabled (row-adjacent addresses stay row-adjacent).
	Mapper Mapper
	// Detailed switches access latency computation to the command-level
	// engine (PRE/ACT/RD with JEDEC inter-command constraints). Nil keeps
	// the fast latency-additive model.
	Detailed *DetailedTiming
}

// DefaultConfig returns the paper's 4 GB DDR3 module at the given frequency.
func DefaultConfig(f sim.Freq) Config {
	return Config{
		Geometry: DefaultGeometry(),
		Timing:   DefaultTiming(f),
		Disturb:  DefaultDisturbConfig(),
	}
}

// bankState is the per-bank dynamic state.
type bankState struct {
	openRow    int // -1 when precharged
	lastAccess sim.Cycles
}

// Stats aggregates module activity.
type Stats struct {
	Reads         uint64
	Writes        uint64
	RowHits       uint64
	RowMisses     uint64 // activation into a precharged bank
	RowConflicts  uint64 // activation displacing an open row
	Activations   uint64
	RefreshStalls uint64     // accesses delayed by an in-progress REF
	StallCycles   sim.Cycles // total cycles lost to refresh blocking
	Flips         int
}

// AccessResult describes the outcome of one DRAM access.
type AccessResult struct {
	Latency   sim.Cycles
	Coord     Coord
	RowHit    bool
	Activated bool
	Stall     sim.Cycles // refresh-blocking portion of Latency
}

// ActivateHook observes row activations; hardware defenses (PARA, TRR,
// ARMOR) register hooks to watch the command stream the way a memory
// controller would.
type ActivateHook func(c Coord, now sim.Cycles)

// IdleWindow reports the half-open window [from, to) of simulated time in
// which an activation hook does nothing: an activation inside it changes
// neither the hook's state nor anything the hook acts on.
type IdleWindow func() (from, to sim.Cycles)

// hook is one registered activation hook and its idle window, nil for a
// hook that may act on any activation.
type hook struct {
	act  ActivateHook
	idle IdleWindow
}

// Module is a simulated DRAM module.
type Module struct {
	cfg    Config
	mapper Mapper
	linMap *LinearMapper // mapper devirtualized when it is the stock one
	banks  []bankState
	trefi  sim.Cycles

	engine      *commandEngine        // nil unless Config.Detailed is set
	disturbed   []bankDisturb         // per-bank victim records, index = bank
	planted     map[uint64][]weakCell // explicit weak cells (tests, harness)
	flips       []BitFlip
	transient   []BitFlip    // fault-injected transient errors (see TransientFlips)
	fault       *moduleFault // nil unless InjectFaults installed one
	hooks       []hook
	interceptor func(c Coord, now sim.Cycles) bool

	rowsPerRefCmd uint64 // rows covered by one REF command (lastScheduledRefresh)
	// binShift/cmdMask replace the division by rowsPerRefCmd and the modulo
	// by RefreshCommands with shift/mask when both are powers of two (true
	// for every shipped geometry); the *OK flags gate the fast path.
	binShift   uint
	binShiftOK bool
	cmdMask    uint64
	cmdMaskOK  bool

	// refOffset is each rank's refresh-schedule offset: ranks refresh
	// tREFI/ranks apart, so refresh blocking is spread in time, as real
	// controllers do. Precomputed so the access path never divides by the
	// rank count.
	refOffset []sim.Cycles
	// stallFree memoises, per rank, a half-open interval of simulated time
	// known to carry no refresh stall, so streams of accesses inside one
	// tREFI window skip the modulo in refreshStall. Intervals are exact in
	// both directions because callers' clocks are not monotone (cache
	// writebacks arrive slightly in the past).
	stallFreeFrom []sim.Cycles
	stallFreeTo   []sim.Cycles
	// epochK/epochStart/epochEnd memoise one refresh epoch (the interval
	// [k*tREFI, (k+1)*tREFI) containing the last queried time) for the
	// REF-close check and lastScheduledRefresh. Pure memoisation of
	// uint64(t)/tREFI: results are identical whether or not the cache hits.
	epochK     uint64
	epochStart sim.Cycles
	epochEnd   sim.Cycles

	steadyBuf []steadyRead // the steady repeat's scratch (ref.go)

	stats Stats
}

// victimPageRows is how many rows' victim records one page holds.
const victimPageRows = 64

// victimPage is one page of a bank's victim records (64 × 32 B = 2 KB).
type victimPage [victimPageRows]victim

// bankDisturb is one bank's disturbance state: victim records indexed by
// row, so the activation path indexes arrays instead of hashing (bank,row)
// keys, held in fixed-size pages allocated on their first disturbance. A
// hammer loop disturbs a handful of rows, so a bank costs its page table
// and a page or two, not a record for each of its rows. Each victim carries
// its own cached flip threshold.
type bankDisturb struct {
	pages []*victimPage // index = row / victimPageRows; nil until disturbed
}

// peek returns row's record, or nil when its page was never disturbed.
func (bd *bankDisturb) peek(row int) *victim {
	if p := uint(row) / victimPageRows; p < uint(len(bd.pages)) {
		if pg := bd.pages[p]; pg != nil {
			return &pg[uint(row)%victimPageRows]
		}
	}
	return nil
}

func victimKey(bank, row int) uint64 { return uint64(bank)<<32 | uint64(uint32(row)) }

// New builds a Module. The zero-value Config is invalid; start from
// DefaultConfig.
func New(cfg Config) (*Module, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Disturb.Validate(); err != nil {
		return nil, err
	}
	mapper := cfg.Mapper
	if mapper == nil {
		var err error
		mapper, err = NewLinearMapper(cfg.Geometry, false)
		if err != nil {
			return nil, err
		}
	}
	if err := cfg.Detailed.Validate(); err != nil {
		return nil, err
	}
	cmds := uint64(cfg.Timing.RefreshCommands)
	m := &Module{
		cfg:           cfg,
		mapper:        mapper,
		banks:         make([]bankState, cfg.Geometry.Banks()),
		trefi:         cfg.Timing.TREFI(),
		disturbed:     make([]bankDisturb, cfg.Geometry.Banks()),
		planted:       make(map[uint64][]weakCell),
		rowsPerRefCmd: (uint64(cfg.Geometry.RowsPerBank) + cmds - 1) / cmds,
	}
	if lm, ok := mapper.(*LinearMapper); ok {
		m.linMap = lm
	}
	if m.rowsPerRefCmd&(m.rowsPerRefCmd-1) == 0 {
		m.binShift = uint(bits.TrailingZeros64(m.rowsPerRefCmd))
		m.binShiftOK = true
	}
	if cmds&(cmds-1) == 0 {
		m.cmdMask = cmds - 1
		m.cmdMaskOK = true
	}
	if cfg.Detailed != nil {
		m.engine = newCommandEngine(cfg.Detailed, cfg.Geometry.Banks(), cfg.Geometry.Ranks)
	}
	ranks := cfg.Geometry.Ranks
	m.refOffset = make([]sim.Cycles, ranks)
	m.stallFreeFrom = make([]sim.Cycles, ranks)
	m.stallFreeTo = make([]sim.Cycles, ranks)
	for r := 1; r < ranks; r++ {
		m.refOffset[r] = m.trefi / sim.Cycles(ranks) * sim.Cycles(r)
	}
	for i := range m.banks {
		m.banks[i].openRow = -1
	}
	return m, nil
}

// Mapper returns the address map in use.
func (m *Module) Mapper() Mapper { return m.mapper }

// Config returns the module's configuration.
func (m *Module) Config() Config { return m.cfg }

// Stats returns a snapshot of the module's counters.
func (m *Module) Stats() Stats {
	s := m.stats
	s.Flips = len(m.flips)
	return s
}

// Flips returns all recorded bit flips, in occurrence order.
func (m *Module) Flips() []BitFlip {
	return append([]BitFlip(nil), m.flips...)
}

// FlipCount returns the number of bit flips recorded so far.
func (m *Module) FlipCount() int { return len(m.flips) }

// OnActivate registers a hook invoked on every row activation. A hook acts
// on the DRAM module only (refreshing rows, counting, classifying flips),
// never on the machine around it: memsys applies whole iterations of a
// hammer loop at once, hooks included, because nothing a hook does can stop
// the per-request path mid-iteration (memsys/skip.go). Every hook in
// internal/defense complies.
//
// idle, when not nil, declares when the hook does nothing. The module asks
// for the window afresh before each stretch of the steady repeat (ref.go)
// and makes the stretch's activations without calling the hook. So the
// window may move only when the hook acts, or when its owner changes the
// hook's state from outside the module, as ECC.Scrub does. A hook with a
// nil idle may act on any activation, and keeps every read through
// ReadRefs live.
func (m *Module) OnActivate(h ActivateHook, idle IdleWindow) {
	m.hooks = append(m.hooks, hook{act: h, idle: idle})
}

// SetInterceptor installs a pre-activation filter: when it returns true the
// access is served without opening the DRAM row (the mechanism behind
// ARMOR-style hot-row buffers in the memory controller). Row-buffer hits
// are not intercepted — they never activate. Like an OnActivate hook, the
// filter acts on the DRAM module and its own state only. It declares no idle
// window, so it keeps every read through ReadRefs live.
func (m *Module) SetInterceptor(f func(c Coord, now sim.Cycles) bool) { m.interceptor = f }

// plantCheck validates the coordinates and threshold common to the Plant
// methods. Thresholds and coordinates typically come straight from CLI
// flags, so violations are reported as errors rather than panics.
func (m *Module) plantCheck(bank, row int, units float64) error {
	switch {
	case units <= 0:
		return fmt.Errorf("dram: planted threshold must be positive, got %g", units)
	case bank < 0 || bank >= m.cfg.Geometry.Banks():
		return fmt.Errorf("dram: bank %d outside module (have %d banks)", bank, m.cfg.Geometry.Banks())
	case row < 0 || row >= m.cfg.Geometry.RowsPerBank:
		return fmt.Errorf("dram: row %d outside bank (have %d rows)", row, m.cfg.Geometry.RowsPerBank)
	}
	return nil
}

// PlantWeakRow overrides the weak cells of one row with a single cell at
// the given threshold, making experiments exactly reproducible regardless
// of the procedural weak-cell map.
func (m *Module) PlantWeakRow(bank, row int, units float64) error {
	if err := m.plantCheck(bank, row, units); err != nil {
		return err
	}
	bit := int(rowHash(m.cfg.Disturb.Seed^0xb17f11b, bank, row) % uint64(m.cfg.Geometry.RowBytes*8))
	m.planted[victimKey(bank, row)] = []weakCell{{threshold: units, bit: bit}}
	m.dropCachedThreshold(bank, row)
	return nil
}

// dropCachedThreshold marks a row's dense threshold cache entry as
// uncomputed after planting changes the row's weak cells.
func (m *Module) dropCachedThreshold(bank, row int) {
	if v := m.disturbed[bank].peek(row); v != nil {
		v.thr = 0
	}
}

// PlantWeakCell appends one explicit weak cell (threshold + bit position)
// to a row. Planting several cells in the same 64-bit word models the
// multi-flip-per-word behaviour that defeats SECDED ECC (§1.2).
func (m *Module) PlantWeakCell(bank, row int, units float64, bit int) error {
	if err := m.plantCheck(bank, row, units); err != nil {
		return err
	}
	if bit < 0 || bit >= m.cfg.Geometry.RowBytes*8 {
		return fmt.Errorf("dram: bit %d outside the row (%d bits)", bit, m.cfg.Geometry.RowBytes*8)
	}
	k := victimKey(bank, row)
	cells := append(m.planted[k], weakCell{threshold: units, bit: bit})
	sort.Slice(cells, func(i, j int) bool { return cells[i].threshold < cells[j].threshold })
	m.planted[k] = cells
	m.dropCachedThreshold(bank, row)
	return nil
}

// rowCells returns the row's weak cells, weakest first.
func (m *Module) rowCells(bank, row int) []weakCell {
	if cells, ok := m.planted[victimKey(bank, row)]; ok {
		return cells
	}
	return m.cfg.Disturb.cells(bank, row, m.cfg.Geometry.RowBytes*8)
}

// cacheThreshold computes (bank,row)'s weakest-cell threshold and stores it
// on the row's victim record, with +Inf standing in for "never flips".
func (m *Module) cacheThreshold(v *victim, bank, row int) {
	thr, vulnerable := m.RowThreshold(bank, row)
	if !vulnerable {
		thr = math.Inf(1)
	}
	v.thr = thr
}

// RowThreshold reports the flip threshold of (bank,row)'s weakest cell, and
// whether the row can flip at all.
func (m *Module) RowThreshold(bank, row int) (float64, bool) {
	if cells, ok := m.planted[victimKey(bank, row)]; ok {
		return cells[0].threshold, true
	}
	return m.cfg.Disturb.threshold(bank, row)
}

// WeakRows scans a bank for rows with thresholds at most maxUnits and
// returns them ordered weakest first. It models an attacker's (or test
// harness's) memory-profiling step.
func (m *Module) WeakRows(bank int, maxUnits float64, limit int) []int {
	type wr struct {
		row int
		t   float64
	}
	var out []wr
	for row := 0; row < m.cfg.Geometry.RowsPerBank; row++ {
		if t, ok := m.RowThreshold(bank, row); ok && t <= maxUnits {
			out = append(out, wr{row, t})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].t != out[j].t {
			return out[i].t < out[j].t
		}
		return out[i].row < out[j].row
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	rows := make([]int, len(out))
	for i, w := range out {
		rows[i] = w.row
	}
	return rows
}

// VictimUnits reports the current disturbance accumulator of (bank,row),
// applying any pending lazy refresh first. Intended for tests and detectors
// with oracle access.
func (m *Module) VictimUnits(bank, row int, now sim.Cycles) float64 {
	if bank < 0 || bank >= len(m.disturbed) || row < 0 || row >= m.cfg.Geometry.RowsPerBank {
		return 0
	}
	v := m.disturbed[bank].peek(row)
	if v == nil {
		return 0
	}
	if r := m.lastScheduledRefresh(row, now, true); r > v.lastReset {
		return 0
	}
	return v.units
}

// lastScheduledRefresh returns the time of the most recent periodic-refresh
// sweep of the given row at or before now (0 if it has not been refreshed
// since the start of the simulation). The sweep is evaluated lazily so no
// per-tREFI events are needed. It depends on now only through now's refresh
// epoch. With note set, the walk back over injected refresh skips notes
// each skipped slot it passes in the fault stats.
func (m *Module) lastScheduledRefresh(row int, now sim.Cycles, note bool) sim.Cycles {
	kLast, swept := m.sweepSlot(row, m.refEpoch(now))
	if !swept {
		return 0
	}
	if f := m.fault; f != nil && f.cfg.RefreshSkipRate > 0 {
		cmds := uint64(m.cfg.Timing.RefreshCommands)
		// Walk back over skipped REF slots: a skipped sweep left the row's
		// charge (and disturbance accumulator) untouched, so the effective
		// last refresh is the most recent non-skipped slot.
		for i := 0; i < maxSkipWalk && f.skipsSlot(kLast); i++ {
			if note {
				f.note(kLast)
			}
			if kLast < cmds {
				return 0 // the row's very first sweep was skipped
			}
			kLast -= cmds
		}
	}
	return sim.Cycles(kLast) * m.trefi
}

// sweepSlot returns the refresh epoch of the row's last sweep slot at or
// before epoch k, injected skips aside, or, with swept false, of its first
// slot when k precedes it.
func (m *Module) sweepSlot(row int, k uint64) (slot uint64, swept bool) {
	var bin uint64
	if m.binShiftOK {
		bin = uint64(row) >> m.binShift
	} else {
		bin = uint64(row) / m.rowsPerRefCmd
	}
	switch {
	case k < bin:
		return bin, false
	case m.cmdMaskOK:
		return k - (k-bin)&m.cmdMask, true
	}
	return k - (k-bin)%uint64(m.cfg.Timing.RefreshCommands), true
}

// refreshStall returns how long an access arriving at now on the given rank
// must wait for an in-progress REF command to finish.
func (m *Module) refreshStall(rank int, now sim.Cycles) sim.Cycles {
	if now >= m.stallFreeFrom[rank] && now < m.stallFreeTo[rank] {
		return 0
	}
	t := uint64(now) + uint64(m.trefi) - uint64(m.refOffset[rank])
	phase := sim.Cycles(t % uint64(m.trefi))
	// The rank's last REF began at now-phase. The window from the end of its
	// tRFC to the next REF is stall-free: memoise it so the next accesses in
	// it skip the mod, the one that waits for this REF to finish included.
	m.stallFreeFrom[rank] = now - phase + m.cfg.Timing.RFC
	m.stallFreeTo[rank] = now - phase + m.trefi
	if phase < m.cfg.Timing.RFC {
		return m.cfg.Timing.RFC - phase
	}
	return 0
}

// refEpoch returns uint64(t)/tREFI through the one-entry epoch cache.
func (m *Module) refEpoch(t sim.Cycles) uint64 {
	if t < m.epochStart || t >= m.epochEnd {
		m.setRefEpoch(t)
	}
	return m.epochK
}

func (m *Module) setRefEpoch(t sim.Cycles) {
	k := uint64(t) / uint64(m.trefi)
	m.epochK = k
	m.epochStart = sim.Cycles(k) * m.trefi
	m.epochEnd = m.epochStart + m.trefi
}

// sameRefEpoch reports whether a and b fall in the same refresh epoch
// (uint64(a)/tREFI == uint64(b)/tREFI), consulting the epoch cache. Epoch
// intervals partition time, so one timestamp inside the cached interval and
// one outside decides "different" without dividing.
func (m *Module) sameRefEpoch(a, b sim.Cycles) bool {
	aIn := a >= m.epochStart && a < m.epochEnd
	bIn := b >= m.epochStart && b < m.epochEnd
	switch {
	case aIn && bIn:
		return true
	case aIn || bIn:
		return false
	default:
		m.setRefEpoch(b)
		return a >= m.epochStart && a < m.epochEnd
	}
}

// Access performs one read or write of the physical address at simulated
// time now and returns its latency and classification.
func (m *Module) Access(pa uint64, write bool, now sim.Cycles) AccessResult {
	return m.AccessCoord(m.coord(pa), write, now)
}

// coord decodes pa through the devirtualized stock mapper when it is in use.
func (m *Module) coord(pa uint64) Coord {
	if m.linMap != nil {
		return m.linMap.Map(pa)
	}
	return m.mapper.Map(pa)
}

// AccessCoord is Access for a pre-decoded coordinate.
func (m *Module) AccessCoord(c Coord, write bool, now sim.Cycles) AccessResult {
	return m.access(c, m.cfg.Geometry.Rank(c.Bank), write, now, nil)
}

// access is AccessCoord for c on the given rank. A read through a Ref
// (ref.go) runs it too, with ref's pre-resolved records standing in for the
// lookups of c's row and its neighbours when the read activates; ref is nil
// for every other access.
func (m *Module) access(c Coord, rank int, write bool, now sim.Cycles, ref *Ref) AccessResult {
	// Row-buffer-hit fast path: the open row matches, the rank is provably
	// outside any refresh-stall window, no REF boundary was crossed since
	// the bank's last access, and the command engine is not in play. Every
	// condition is a pure read, so falling through runs the general path
	// with no state disturbed; when all hold, the general path would
	// perform exactly these updates.
	if b := &m.banks[c.Bank]; b.openRow == c.Row && m.engine == nil &&
		now >= m.stallFreeFrom[rank] && now < m.stallFreeTo[rank] &&
		now >= m.epochStart && now < m.epochEnd &&
		b.lastAccess >= m.epochStart && b.lastAccess < m.epochEnd {
		if write {
			m.stats.Writes++
		} else {
			m.stats.Reads++
		}
		m.stats.RowHits++
		b.lastAccess = now
		return AccessResult{Coord: c, RowHit: true, Latency: m.cfg.Timing.RowHit}
	}
	if write {
		m.stats.Writes++
	} else {
		m.stats.Reads++
	}
	stall := m.refreshStall(rank, now)
	if stall > 0 {
		m.stats.RefreshStalls++
		m.stats.StallCycles += stall
		now += stall
	}
	b := &m.banks[c.Bank]
	// An auto-refresh command requires all banks precharged, so any REF
	// since the bank's last access closed its open row.
	if b.openRow >= 0 && !m.sameRefEpoch(now, b.lastAccess) {
		b.openRow = -1
	}
	b.lastAccess = now
	res := AccessResult{Coord: c, Stall: stall}
	switch {
	case b.openRow == c.Row:
		m.stats.RowHits++
		res.RowHit = true
		res.Latency = stall + m.latency(c.Bank, rank, true, false, now)
	case m.interceptor != nil && m.interceptor(c, now):
		// Served from a controller-side buffer: no activation occurs.
		res.RowHit = true
		res.Latency = stall + m.latency(c.Bank, rank, true, false, now)
	case b.openRow < 0:
		m.stats.RowMisses++
		res.Activated = true
		res.Latency = stall + m.latency(c.Bank, rank, false, false, now)
	default:
		m.stats.RowConflicts++
		res.Activated = true
		res.Latency = stall + m.latency(c.Bank, rank, false, true, now)
	}
	if res.Activated {
		if ref != nil {
			m.activateRows(c, ref.self, ref.below, ref.above, now)
			m.activateTail(c, now)
		} else {
			m.activate(c, now)
		}
	}
	return res
}

// latency computes the access latency via the fixed model or, when
// configured, the command-level engine.
func (m *Module) latency(bank, rank int, rowHit, openRow bool, now sim.Cycles) sim.Cycles {
	if m.engine == nil {
		switch {
		case rowHit:
			return m.cfg.Timing.RowHit
		case openRow:
			return m.cfg.Timing.RowConflict
		default:
			return m.cfg.Timing.RowClosed
		}
	}
	data := m.engine.access(bank, rank, rowHit, openRow, now)
	return data - now
}

// RefreshRow refreshes one row directly (the path used by hardware defenses
// like TRR/PARA, which issue internal refreshes without a CPU read). It
// clears the row's disturbance accumulator and counts as an activation for
// neighbouring rows, exactly like a read would.
func (m *Module) RefreshRow(bank, row int, now sim.Cycles) {
	if bank < 0 || bank >= len(m.banks) || row < 0 || row >= m.cfg.Geometry.RowsPerBank {
		return
	}
	m.activate(Coord{Bank: bank, Row: row}, now)
}

// activate performs the disturbance bookkeeping for an activation of c.Row.
func (m *Module) activate(c Coord, now sim.Cycles) {
	// The row's own record is looked up before disturbing the neighbours
	// allocates their pages, which may be its own.
	self := m.disturbed[c.Bank].peek(c.Row)
	m.activateRows(c, self, m.victimAt(c.Bank, c.Row-1), m.victimAt(c.Bank, c.Row+1), now)
	m.activateTail(c, now)
}

// activateTail is what follows activateRows for every activation: injected
// transient errors and the activation hooks. Reads through refs run it too,
// after activating through their records.
func (m *Module) activateTail(c Coord, now sim.Cycles) {
	if m.fault.transients() {
		m.injectTransient(c, now)
	}

	for _, h := range m.hooks {
		h.act(c, now)
	}
}

// activateRows opens c.Row, restores its charge and disturbs its immediate
// neighbours, whose records below (row-1) and above (row+1) are nil outside
// the bank. activate and reads through refs share it.
func (m *Module) activateRows(c Coord, self, below, above *victim, now sim.Cycles) {
	m.banks[c.Bank].openRow = c.Row
	m.stats.Activations++

	// The activated row's own charge is restored. A page that was never
	// disturbed holds no charge, so there is nothing to reset: resetting its
	// all-zero record would only move lastReset, and simulated time is
	// monotone, so every later refresh-sweep comparison decides the same way
	// without it.
	if self != nil {
		self.units = 0
		self.lastReset = now
		self.lastSide = 0
		self.flipped = 0
	}
	if below != nil {
		m.deposit(below, c.Bank, c.Row-1, +1, now)
	}
	if above != nil {
		m.deposit(above, c.Bank, c.Row+1, -1, now)
	}
}

// victimAt returns (bank,row)'s victim record, allocating its page on the
// row's first disturbance, or nil when row lies outside the bank.
func (m *Module) victimAt(bank, row int) *victim {
	if row < 0 || row >= m.cfg.Geometry.RowsPerBank {
		return nil
	}
	bd := &m.disturbed[bank]
	if bd.pages == nil {
		bd.pages = make([]*victimPage, (m.cfg.Geometry.RowsPerBank+victimPageRows-1)/victimPageRows)
	}
	p := uint(row) / victimPageRows
	pg := bd.pages[p]
	if pg == nil {
		pg = new(victimPage)
		bd.pages[p] = pg
	}
	return &pg[uint(row)%victimPageRows]
}

// deposit disturbs victim row `row` of `bank`, whose record is v, due to an
// activation of the neighbour on the given side (+1: the aggressor is the
// row above the victim; -1: below): the lazy periodic-refresh reset, then
// the units (victim.add), then any flips the accumulator reaches.
func (m *Module) deposit(v *victim, bank, row int, side int8, now sim.Cycles) {
	// Lazy periodic-refresh reset.
	if r := m.lastScheduledRefresh(row, now, true); r > v.lastReset {
		v.units = 0
		v.lastReset = r
		v.lastSide = 0
		v.flipped = 0
	}
	if v.thr == 0 {
		m.cacheThreshold(v, bank, row)
	}
	if v.add(side, m.cfg.Disturb.AlternationBonus) {
		m.flip(v, bank, row, now)
	}
}

// add adds one unit to the accumulator, plus bonus for a deposit from the
// side opposite the previous one, and reports whether it has reached the
// cached threshold. deposit and the steady repeat of reads through refs
// (ref.go) share it.
func (v *victim) add(side int8, bonus float64) bool {
	units := 1.0
	// Alternation bonus: the victim's previous disturbance came from its
	// other neighbour (double-sided hammering discharges super-linearly).
	if v.lastSide != 0 && v.lastSide != side {
		units += bonus
	}
	v.lastSide = side
	v.units += units
	// The cell list is materialised only once the weakest cell's threshold
	// has been reached (the hot path runs on every activation).
	return v.units >= v.thr
}

// flip records a flip for each of (bank,row)'s weak cells, weakest first,
// that v's accumulator has reached since its last reset.
func (m *Module) flip(v *victim, bank, row int, now sim.Cycles) {
	cells := m.rowCells(bank, row)
	for int(v.flipped) < len(cells) && v.units >= cells[v.flipped].threshold {
		m.flips = append(m.flips, BitFlip{
			Bank: bank,
			Row:  row,
			Bit:  cells[v.flipped].bit,
			Time: now,
		})
		v.flipped++
	}
}

// OpenRow reports the currently open row in a bank (-1 if precharged).
func (m *Module) OpenRow(bank int) int { return m.banks[bank].openRow }
