// Package pmu simulates the hardware performance-monitoring facilities that
// ANVIL is built on (paper §3.3):
//
//   - event counters, including LONGEST_LAT_CACHE.MISS and
//     MEM_LOAD_UOPS_MISC_RETIRED.LLC_MISS, with an overflow interrupt that
//     fires after a programmable number of events;
//   - the PEBS Load Latency facility: probabilistic sampling of retired
//     loads whose latency exceeds a programmable threshold, recording the
//     load's virtual address, data source and latency;
//   - the Precise Store facility: the analogous sampler for stores.
//
// The memory system feeds every program access into Observe; detectors read
// counters, arm overflow interrupts, and drain sample buffers.
package pmu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/sim"
)

// Event identifies a hardware event counter.
type Event int

// The counted events. Names follow the Intel events the paper uses.
const (
	// EvLLCMiss is LONGEST_LAT_CACHE.MISS: every last-level cache miss.
	EvLLCMiss Event = iota
	// EvLLCMissLoads is MEM_LOAD_UOPS_MISC_RETIRED.LLC_MISS: retired load
	// operations that missed the last-level cache.
	EvLLCMissLoads
	// EvLoads counts retired loads.
	EvLoads
	// EvStores counts retired stores.
	EvStores
	// EvLLCReference counts LLC lookups (hits + misses).
	EvLLCReference
	numEvents
)

func (e Event) String() string {
	switch e {
	case EvLLCMiss:
		return "LONGEST_LAT_CACHE.MISS"
	case EvLLCMissLoads:
		return "MEM_LOAD_UOPS_MISC_RETIRED.LLC_MISS"
	case EvLoads:
		return "MEM_TRANS_RETIRED.LOADS"
	case EvStores:
		return "MEM_TRANS_RETIRED.STORES"
	case EvLLCReference:
		return "LONGEST_LAT_CACHE.REFERENCE"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// Access describes one memory operation as seen by the monitoring hardware.
type Access struct {
	VA      uint64
	PA      uint64
	Write   bool
	Latency sim.Cycles
	Source  cache.DataSource
	LLCMiss bool
	Task    int // owning task id (for the task_struct sampled alongside)
	Core    int
	Now     sim.Cycles
}

// Sample is one PEBS record.
type Sample struct {
	VA      uint64
	Latency sim.Cycles
	Source  cache.DataSource
	Write   bool
	Task    int
	Core    int
	Time    sim.Cycles
}

// SamplerConfig programs one PEBS facility.
type SamplerConfig struct {
	// Enabled arms the facility.
	Enabled bool
	// LatencyThreshold qualifies loads with at least this latency (the
	// Load Latency facility's dedicated threshold register). Ignored by
	// the store facility, whose records always carry the data source.
	LatencyThreshold sim.Cycles
	// Interval is the minimum simulated time between samples, i.e. the
	// inverse of the sampling rate. The first qualifying event after each
	// interval tick is sampled, with a deterministic +-20% jitter to avoid
	// phase-locking onto periodic access patterns.
	Interval sim.Cycles
}

type sampler struct {
	cfg  SamplerConfig
	next sim.Cycles
	rng  *sim.Rand
}

func (s *sampler) configure(cfg SamplerConfig, now sim.Cycles) {
	s.cfg = cfg
	s.next = now // first qualifying event samples immediately
}

// take decides whether this event is sampled and schedules the next tick.
func (s *sampler) take(now sim.Cycles) bool {
	if !s.cfg.Enabled || now < s.next {
		return false
	}
	iv := uint64(s.cfg.Interval)
	if iv == 0 {
		iv = 1
	}
	jitter := iv / 5
	next := iv - jitter
	if jitter > 0 {
		next += s.rng.Uint64n(2*jitter + 1)
	}
	s.next = now + sim.Cycles(next)
	return true
}

// Overflow configures a counter-overflow interrupt. pending/fireAt model a
// fault-injected delivery delay: the counter has crossed its target but the
// interrupt is still in flight and lands at the first event at or after
// fireAt.
type overflow struct {
	armed   bool
	target  uint64
	pending bool
	fireAt  sim.Cycles
	fn      func(now sim.Cycles)
}

// FaultConfig injects PEBS/PMI degradations into the PMU. The zero value
// injects nothing; installing it via InjectFaults is a no-op on behaviour.
// All randomness comes from the *sim.Rand handed to InjectFaults, so a given
// (config, seed, access stream) always degrades identically.
type FaultConfig struct {
	// SampleDropRate is the probability that a sample the sampler decided to
	// take is silently lost before reaching the buffer (PEBS micro-assist
	// aborts, lost DS records).
	SampleDropRate float64
	// SampleSkidRate is the probability a recorded sample's virtual address
	// skids by up to SkidMaxLines cache lines in either direction, the way
	// imprecise PEBS attribution lands on a neighbouring instruction's
	// operand.
	SampleSkidRate float64
	SkidMaxLines   int
	// BufferCap, when positive and smaller than the configured capacity,
	// shrinks the PEBS buffer (a cramped debug-store area drops more samples
	// between drains).
	BufferCap int
	// OverflowMaxDelay postpones counter-overflow interrupt delivery by a
	// uniform 0..OverflowMaxDelay cycles; the interrupt lands on the first
	// event after the delay. Disarming while in flight loses it.
	OverflowMaxDelay sim.Cycles
}

// FaultStats counts the degradations actually injected.
type FaultStats struct {
	InjectedDrops    uint64
	SkiddedSamples   uint64
	DelayedOverflows uint64
}

type pmuFault struct {
	cfg   FaultConfig
	rng   *sim.Rand
	stats FaultStats
}

// PMU is the performance monitoring unit shared by the machine (counters
// model the uncore LLC events; samples carry core/task provenance).
type PMU struct {
	counts   [numEvents]uint64
	over     [numEvents]overflow
	loads    sampler
	stores   sampler
	buf      []Sample
	capacity int
	dropped  uint64
	onSample func(s Sample) // PMI hook: detectors charge per-sample cost here
	fault    *pmuFault      // nil unless InjectFaults installed one
	// watch counts events with an armed or in-flight (pending) overflow, so
	// Observe can skip all overflow bookkeeping when nothing is watching.
	watch int
	// cfgGen increments whenever overflow configuration changes (arm, disarm,
	// or a fire that disarms). Batched callers snapshot it to detect that a
	// previously computed overflow bound went stale mid-run.
	cfgGen uint64
}

// New creates a PMU. bufferCap bounds the PEBS buffer (a full buffer drops
// further records, as real debug-store areas do between drains).
func New(seed uint64, bufferCap int) *PMU {
	if bufferCap <= 0 {
		bufferCap = 4096
	}
	p := &PMU{capacity: bufferCap}
	rng := sim.NewRand(seed)
	p.loads.rng = rng.Split()
	p.stores.rng = rng.Split()
	return p
}

// Read returns the current value of an event counter.
func (p *PMU) Read(e Event) uint64 { return p.counts[e] }

// Reset zeroes an event counter.
func (p *PMU) Reset(e Event) { p.counts[e] = 0 }

// ArmOverflow fires fn once when the counter for e has advanced by n more
// events. Re-arm from inside fn for periodic interrupts.
func (p *PMU) ArmOverflow(e Event, n uint64, fn func(now sim.Cycles)) {
	if !p.watching(e) {
		p.watch++
	}
	p.over[e] = overflow{armed: true, target: p.counts[e] + n, fn: fn}
	p.cfgGen++
}

// DisarmOverflow cancels a pending overflow interrupt, including one whose
// fault-delayed delivery is still in flight.
func (p *PMU) DisarmOverflow(e Event) {
	if p.watching(e) {
		p.watch--
	}
	p.over[e].armed = false
	p.over[e].pending = false
	p.cfgGen++
}

func (p *PMU) watching(e Event) bool {
	return p.over[e].armed || p.over[e].pending
}

// ConfigGen identifies the current overflow configuration; any arm, disarm,
// or overflow delivery changes it. A batched caller that computed
// AccessesUntilOverflow must abandon the bound when ConfigGen moves.
func (p *PMU) ConfigGen() uint64 { return p.cfgGen }

// AccessesUntilOverflow returns how many further memory accesses are
// guaranteed not to deliver an overflow interrupt, no matter how the events
// classify. Each access bumps any one counter at most once, so the bound is
// min over armed counters of (target - count - 1). An in-flight delayed
// interrupt can land on any bump, so a pending overflow bounds it to zero.
// With nothing armed the bound is effectively unlimited.
func (p *PMU) AccessesUntilOverflow() uint64 {
	if p.watch == 0 {
		return ^uint64(0)
	}
	bound := ^uint64(0)
	for e := Event(0); e < numEvents; e++ {
		o := &p.over[e]
		if o.pending {
			return 0
		}
		if !o.armed {
			continue
		}
		if o.target <= p.counts[e]+1 {
			return 0
		}
		if n := o.target - p.counts[e] - 1; n < bound {
			bound = n
		}
	}
	return bound
}

// InjectFaults installs a degradation model. Call at most once, before the
// run; a zero cfg changes nothing. rng must be dedicated to the PMU (see
// sim.Rand.Split) so fault decisions do not perturb other streams.
func (p *PMU) InjectFaults(cfg FaultConfig, rng *sim.Rand) {
	p.fault = &pmuFault{cfg: cfg, rng: rng}
	if cfg.BufferCap > 0 && cfg.BufferCap < p.capacity {
		p.capacity = cfg.BufferCap
	}
}

// FaultStats reports the degradations injected so far (zero value without
// InjectFaults).
func (p *PMU) FaultStats() FaultStats {
	if p.fault == nil {
		return FaultStats{}
	}
	return p.fault.stats
}

// ConfigureLoadSampler programs the Load Latency facility.
func (p *PMU) ConfigureLoadSampler(cfg SamplerConfig, now sim.Cycles) {
	p.loads.configure(cfg, now)
}

// ConfigureStoreSampler programs the Precise Store facility.
func (p *PMU) ConfigureStoreSampler(cfg SamplerConfig, now sim.Cycles) {
	p.stores.configure(cfg, now)
}

// OnSample registers the PMI handler invoked for every sample taken
// (used by detectors to model per-sample interrupt cost).
func (p *PMU) OnSample(fn func(s Sample)) { p.onSample = fn }

// Samples drains and returns the PEBS buffer. The returned slice is the
// caller's to keep; the internal buffer is reused so that steady-state
// Observe never allocates.
func (p *PMU) Samples() []Sample {
	if len(p.buf) == 0 {
		return nil
	}
	out := make([]Sample, len(p.buf))
	copy(out, p.buf)
	p.buf = p.buf[:0]
	return out
}

// Dropped reports how many samples were lost to a full buffer.
func (p *PMU) Dropped() uint64 { return p.dropped }

func (p *PMU) bump(e Event, now sim.Cycles) {
	p.counts[e]++
	o := &p.over[e]
	if o.pending && now >= o.fireAt {
		o.pending = false
		p.watch--
		p.cfgGen++
		o.fn(now)
		return
	}
	if o.armed && p.counts[e] >= o.target {
		o.armed = false
		p.cfgGen++
		if f := p.fault; f != nil && f.cfg.OverflowMaxDelay > 0 {
			if delay := sim.Cycles(f.rng.Uint64n(uint64(f.cfg.OverflowMaxDelay) + 1)); delay > 0 {
				// armed -> pending: still watching, only the bound changed.
				o.pending = true
				o.fireAt = now + delay
				f.stats.DelayedOverflows++
				return
			}
		}
		p.watch--
		o.fn(now)
	}
}

// Observe feeds one memory access into the PMU. The memory system calls it
// for every program load and store.
func (p *PMU) Observe(a Access) {
	if p.watch == 0 {
		// Nothing armed or in flight: plain counter increments, no overflow
		// bookkeeping per event.
		p.CountAccess(a.Write, a.LLCMiss)
	} else {
		if a.Write {
			p.bump(EvStores, a.Now)
		} else {
			p.bump(EvLoads, a.Now)
		}
		p.bump(EvLLCReference, a.Now)
		if a.LLCMiss {
			p.bump(EvLLCMiss, a.Now)
			if !a.Write {
				p.bump(EvLLCMissLoads, a.Now)
			}
		}
	}
	if p.WantSample(a.Write, a.Latency, a.Now) {
		p.sample(a)
	}
}

// CountAccess advances the event counters for one access (write/miss
// classification) without overflow checks — Observe's counter half, split
// out and inlineable so batched callers holding an AccessesUntilOverflow
// budget can classify first and build a full Access record only when
// WantSample says a PEBS record will actually be taken.
func (p *PMU) CountAccess(write, llcMiss bool) {
	if write {
		p.counts[EvStores]++
	} else {
		p.counts[EvLoads]++
	}
	p.counts[EvLLCReference]++
	if llcMiss {
		p.counts[EvLLCMiss]++
		if !write {
			p.counts[EvLLCMissLoads]++
		}
	}
}

// CountRun is CountAccess for a run of accesses at once: loads and stores,
// of which missLoads and missStores missed the LLC. Like CountAccess it
// makes no overflow check, so the caller's AccessesUntilOverflow budget
// must cover the run, and the run must end before NextSample.
func (p *PMU) CountRun(loads, stores, missLoads, missStores uint64) {
	p.counts[EvLoads] += loads
	p.counts[EvStores] += stores
	p.counts[EvLLCReference] += loads + stores
	p.counts[EvLLCMiss] += missLoads + missStores
	p.counts[EvLLCMissLoads] += missLoads
}

// NextSample returns the earliest time at which a PEBS sampler could take
// a sample: of a load when loads is set, of a store when stores is set. No
// access made before it is sampled. Without an enabled sampler it returns
// the largest time. Like WantSample it changes nothing.
func (p *PMU) NextSample(loads, stores bool) sim.Cycles {
	next := ^sim.Cycles(0)
	if loads && p.loads.cfg.Enabled {
		next = min(next, p.loads.next)
	}
	if stores && p.stores.cfg.Enabled {
		next = min(next, p.stores.next)
	}
	return next
}

// WantSample is an inlineable pre-filter for the PEBS tail: it restates
// exactly the conditions under which sample() would reject the access without
// mutating any state (sampler disabled, below the latency threshold, or
// before the next sampling tick), so the common case skips the call.
func (p *PMU) WantSample(write bool, latency, now sim.Cycles) bool {
	if write {
		return p.stores.cfg.Enabled && now >= p.stores.next
	}
	return p.loads.cfg.Enabled && latency >= p.loads.cfg.LatencyThreshold && now >= p.loads.next
}

// TakeSample runs the PEBS tail for an access that passed WantSample:
// sampler decision, fault injection, buffering and the PMI hook. Calling it
// when WantSample is false is also valid (the sampler re-rejects).
func (p *PMU) TakeSample(a Access) { p.sample(a) }

// sample runs the PEBS tail of Observe: sampler decision, fault injection,
// buffering and the PMI hook.
func (p *PMU) sample(a Access) {
	var take bool
	if a.Write {
		take = p.stores.take(a.Now)
	} else if a.Latency >= p.loads.cfg.LatencyThreshold {
		take = p.loads.take(a.Now)
	}
	if !take {
		return
	}
	if f := p.fault; f != nil && f.cfg.SampleDropRate > 0 && f.rng.Bool(f.cfg.SampleDropRate) {
		f.stats.InjectedDrops++
		return
	}
	if len(p.buf) >= p.capacity {
		p.dropped++
		return
	}
	s := Sample{
		VA:      a.VA,
		Latency: a.Latency,
		Source:  a.Source,
		Write:   a.Write,
		Task:    a.Task,
		Core:    a.Core,
		Time:    a.Now,
	}
	if f := p.fault; f != nil && f.cfg.SampleSkidRate > 0 && f.cfg.SkidMaxLines > 0 &&
		f.rng.Bool(f.cfg.SampleSkidRate) {
		// Uniform in [-SkidMaxLines, +SkidMaxLines] lines, excluding zero so
		// every skid actually moves the address.
		lines := int64(f.rng.Uint64n(uint64(2*f.cfg.SkidMaxLines))) - int64(f.cfg.SkidMaxLines)
		if lines >= 0 {
			lines++
		}
		s.VA = uint64(int64(s.VA) + lines*64)
		f.stats.SkiddedSamples++
	}
	if p.buf == nil {
		// The buffer is made at the first sample: a machine that never
		// samples, as an undefended one, does not carry it.
		p.buf = make([]Sample, 0, p.capacity)
	}
	p.buf = append(p.buf, s)
	if p.onSample != nil {
		p.onSample(s)
	}
}
