// Package scenario is the declarative layer between the simulator's raw
// building blocks (machine, attack, workload, defense, anvil) and everything
// that runs experiments on them (internal/experiments and every command and
// example). A Spec names *what* a run looks like — machine mutations,
// workloads, attack, defense, seed — and Build turns it into a
// ready-to-run Instance; Build is the only caller of machine.New outside
// tests, so no caller assembles machines by hand.
//
// The package also hosts the experiment registry (registry.go) and the
// parallel seed-sharded runner (runner.go): RunSweep fans replicates across a
// worker pool with each replicate owning its own machine and derived seed,
// and merges results in replicate order so output is bit-identical at any
// parallelism.
package scenario

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/anvil"
	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/defense"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// AttackKind names a rowhammer implementation. The string values double as
// CLI tokens (anvilsim -attack).
type AttackKind string

// The three attacks of the paper's Table 1.
const (
	SingleSidedFlush AttackKind = "single-flush"
	DoubleSidedFlush AttackKind = "double-flush"
	ClflushFree      AttackKind = "clflush-free"
)

// AttackKinds lists the attacks in the paper's Table 1 order.
func AttackKinds() []AttackKind {
	return []AttackKind{SingleSidedFlush, DoubleSidedFlush, ClflushFree}
}

// Label returns the paper's name for the attack, as used in table rows.
func (k AttackKind) Label() string {
	switch k {
	case SingleSidedFlush:
		return "Single-Sided with CLFLUSH"
	case DoubleSidedFlush:
		return "Double-Sided with CLFLUSH"
	case ClflushFree:
		return "Double-Sided without CLFLUSH"
	default:
		return string(k)
	}
}

// DefaultWeakUnits is the paper module's weakest-cell disturbance limit,
// planted at the attack's victim row.
const DefaultWeakUnits = 400_000

// Attack declares the attacker on core 0.
type Attack struct {
	Kind AttackKind
	// WeakUnits is the disturbance threshold planted at the victim row the
	// attack selects; zero means DefaultWeakUnits.
	WeakUnits float64
	// ExtraDelay inserts compute cycles after each hammer access (the §4.5
	// "spread the activations across the refresh period" evasion).
	ExtraDelay sim.Cycles
}

// Workload declares one SPEC-profile program by name, optionally bounded to
// a fixed amount of work (fixed-work benchmarking runs to completion).
type Workload struct {
	Name    string
	OpLimit uint64
}

// DefenseKind names a mitigation from the repository's menu, with its
// canonical parameters. The string values double as CLI tokens
// (anvilsim -defense).
type DefenseKind string

// The defense menu. ANVIL variants run the software detector; the rest are
// the hardware mitigations of the §5 landscape with their canonical
// parameters (PARA p=0.001, TRR MAC=50K/16ms, pTRR 1%/64-entry,
// CRA 100K counters, ARMOR 10K/8-entry/32ms).
const (
	NoDefense     DefenseKind = "none"
	ANVILBaseline DefenseKind = "anvil"
	ANVILLight    DefenseKind = "anvil-light"
	ANVILHeavy    DefenseKind = "anvil-heavy"
	DoubleRefresh DefenseKind = "2x-refresh"
	PARA          DefenseKind = "para"
	TRR           DefenseKind = "trr"
	PTRR          DefenseKind = "ptrr"
	CRA           DefenseKind = "cra"
	ARMOR         DefenseKind = "armor"
)

// DefenseKinds lists the full menu in presentation order.
func DefenseKinds() []DefenseKind {
	return []DefenseKind{NoDefense, ANVILBaseline, ANVILLight, ANVILHeavy,
		DoubleRefresh, PARA, TRR, PTRR, CRA, ARMOR}
}

// anvilParams returns the detector parameters for an ANVIL kind.
func (k DefenseKind) anvilParams() (anvil.Params, bool) {
	switch k {
	case ANVILBaseline:
		return anvil.Baseline(), true
	case ANVILLight:
		return anvil.Light(), true
	case ANVILHeavy:
		return anvil.Heavy(), true
	}
	return anvil.Params{}, false
}

// Spec declares one simulated scenario. The zero value is a bare one-core
// paper machine with nothing running on it.
type Spec struct {
	// Cores sizes the machine; zero means one core per declared program
	// (attack + workloads), minimum one.
	Cores int
	// Seed is the replicate's root: it perturbs machine-level randomness
	// (the PMU sampler stream and the frame allocator stream) through split
	// substreams. Zero keeps the calibrated defaults, so a zero-seed Spec
	// reproduces the paper runs bit-for-bit. Workload address streams keep
	// their per-profile seeds, and the DRAM weak-cell map stays the paper's
	// module: the seed varies the run, not the hardware.
	Seed uint64
	// RefreshScale multiplies the DRAM refresh rate (2 = the §2.1 "double
	// refresh" mitigation); values below 2 leave the paper's 64 ms window.
	RefreshScale int
	// DisturbScale scales the module's flip thresholds (§4.5 uses 0.5 for
	// future, weaker DRAM); zero or one keeps the paper module.
	DisturbScale float64
	// Attack, when non-nil, spawns the attacker on core 0 and plants its
	// victim row.
	Attack *Attack
	// Workloads spawn on the cores after the attack, in order.
	Workloads []Workload
	// Defense selects a mitigation; empty means none. DoubleRefresh is
	// equivalent to RefreshScale 2.
	Defense DefenseKind
	// Faults declares deterministic hardware degradations (see
	// internal/fault). The zero value installs nothing, keeping fault-free
	// runs byte-identical; a non-zero spec is realised as a Plan seeded from
	// Seed, so the same Spec degrades the same way on every run.
	Faults fault.Spec
	// ECCScrub, when positive, attaches a SECDED scrubbing pass at this
	// period (Instance.ECC reports corrected/uncorrectable words) —
	// typically paired with Faults.DRAM transient-error rates.
	ECCScrub time.Duration
	// StepBatch overrides the machine's batch cap (machine.Config.BatchCap):
	// 1 forces per-op stepping — the escape hatch for bisecting any suspected
	// batched-vs-per-op divergence — and larger values bound the batched
	// inner loop. Zero keeps the machine default. Like Parallel, it never
	// changes a reported number, only how the core schedules the same ops.
	StepBatch int
	// Mutate is a last-resort hook over the assembled machine config,
	// applied after every declarative field.
	Mutate func(*machine.Config)
}

// Hammer is the view of a spawned attack that experiments need.
type Hammer interface {
	machine.Program
	Victim() attack.Target
	AggressorAccesses() uint64
	Iterations() uint64
}

// Instance is a built scenario, ready to run.
type Instance struct {
	Spec    Spec
	Machine *machine.Machine
	// Hammer is the spawned attack, nil without one.
	Hammer Hammer
	// Detector is the ANVIL detector, nil unless an ANVIL defense was
	// selected. It is started.
	Detector *anvil.Detector
	// HW is the attached hardware defense, nil unless one was selected.
	HW defense.Defense
	// ECC is the SECDED scrubber, nil unless Spec.ECCScrub was set.
	ECC *defense.ECC
}

// newHammer instantiates an attack implementation.
func newHammer(k AttackKind, opts attack.Options) (Hammer, error) {
	switch k {
	case SingleSidedFlush:
		return attack.NewSingleSidedFlush(opts)
	case DoubleSidedFlush:
		return attack.NewDoubleSidedFlush(opts)
	case ClflushFree:
		return attack.NewClflushFree(opts)
	default:
		return nil, fmt.Errorf("scenario: unknown attack kind %q", k)
	}
}

// Build assembles the machine, attaches the defense, spawns the attack and
// workloads, and starts the detector. It does not advance simulated time.
func Build(s Spec) (*Instance, error) {
	cores := s.Cores
	if cores <= 0 {
		cores = len(s.Workloads)
		if s.Attack != nil {
			cores++
		}
		if cores == 0 {
			cores = 1
		}
	}

	cfg := machine.DefaultConfig()
	cfg.Cores = cores
	if s.Seed != 0 {
		// Split the root seed into independent per-component streams, added
		// on top of the calibrated defaults so seed zero is the identity.
		root := sim.NewRand(s.Seed)
		cfg.Memory.PMUSeed += root.Uint64()
		cfg.AllocSeed += root.Uint64()
	}
	scale := s.RefreshScale
	if s.Defense == DoubleRefresh && scale < 2 {
		scale = 2
	}
	if scale > 1 {
		timing, err := cfg.Memory.DRAM.Timing.RefreshScaled(scale)
		if err != nil {
			return nil, err
		}
		cfg.Memory.DRAM.Timing = timing
	}
	if s.DisturbScale > 0 && s.DisturbScale != 1 {
		cfg.Memory.DRAM.Disturb = cfg.Memory.DRAM.Disturb.Scaled(s.DisturbScale)
	}
	if s.StepBatch > 0 {
		cfg.BatchCap = s.StepBatch
	}
	if s.Mutate != nil {
		s.Mutate(&cfg)
	}
	plan, err := fault.NewPlan(s.Faults, s.Seed)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	// Degrade the hardware before anything observes it: the injectors must
	// be in place before the first access, activation or timer.
	if err := plan.Apply(m); err != nil {
		return nil, err
	}
	in := &Instance{Spec: s, Machine: m}

	if s.ECCScrub > 0 {
		ecc, err := defense.NewECC(m.Freq.Cycles(s.ECCScrub), 64)
		if err != nil {
			return nil, err
		}
		ecc.Attach(m.Mem.DRAM)
		in.ECC = ecc
	}

	// Hardware defenses observe every activation, so they attach before
	// anything is spawned.
	switch s.Defense {
	case PARA:
		in.HW, err = defense.NewPARA(0.001, 0xdead)
	case TRR:
		in.HW, err = defense.NewTRR(50_000, m.Freq.Cycles(16*time.Millisecond))
	case PTRR:
		in.HW, err = defense.NewPTRR(0.01, 64, 500, 0x717)
	case CRA:
		in.HW, err = defense.NewCRA(100_000)
	case ARMOR:
		in.HW, err = defense.NewARMOR(10_000, 8, m.Freq.Cycles(32*time.Millisecond))
	case NoDefense, DoubleRefresh, ANVILBaseline, ANVILLight, ANVILHeavy, "":
	default:
		return nil, fmt.Errorf("scenario: unknown defense kind %q", s.Defense)
	}
	if err != nil {
		return nil, err
	}
	if in.HW != nil {
		in.HW.Attach(m.Mem.DRAM)
	}

	core := 0
	if s.Attack != nil {
		opts := in.AttackOptions()
		opts.ExtraDelay = s.Attack.ExtraDelay
		h, err := newHammer(s.Attack.Kind, opts)
		if err != nil {
			return nil, err
		}
		if _, err := m.Spawn(core, h); err != nil {
			return nil, err
		}
		weak := s.Attack.WeakUnits
		if weak == 0 {
			weak = DefaultWeakUnits
		}
		v := h.Victim()
		if err := m.Mem.DRAM.PlantWeakRow(v.Bank, v.VictimRow, weak); err != nil {
			return nil, err
		}
		in.Hammer = h
		core++
	}
	for _, w := range s.Workloads {
		prof, ok := workload.ByName(w.Name)
		if !ok {
			return nil, fmt.Errorf("scenario: unknown workload %q", w.Name)
		}
		prog, err := workload.New(prof)
		if err != nil {
			return nil, err
		}
		if w.OpLimit > 0 {
			prog = prog.WithOpLimit(w.OpLimit)
		}
		if _, err := m.Spawn(core, prog); err != nil {
			return nil, err
		}
		core++
	}

	if params, ok := s.Defense.anvilParams(); ok {
		det, err := anvil.New(m, params, nil)
		if err != nil {
			return nil, err
		}
		det.Start()
		in.Detector = det
	}
	return in, nil
}

// AttackOptions are the standard attacker capabilities on the instance's
// machine: the reverse-engineered address maps, the Sandy Bridge LLC model,
// and a contiguous 16 MB buffer with self-selected victim.
func (in *Instance) AttackOptions() attack.Options {
	return attack.Options{
		Mapper:     in.Machine.Mem.DRAM.Mapper(),
		LLC:        cache.SandyBridgeConfig().Levels[2],
		AutoTarget: true,
		BufferMB:   16,
		Contiguous: true,
	}
}

// RunFor advances the machine by d of simulated time, tolerating early
// completion.
func (in *Instance) RunFor(d time.Duration) error {
	m := in.Machine
	err := m.Run(m.Time() + m.Freq.Cycles(d))
	if err != nil && !errors.Is(err, machine.ErrAllDone) {
		return err
	}
	return nil
}

// RunToCompletion advances the machine until every program finishes.
func (in *Instance) RunToCompletion() error {
	err := in.Machine.Run(1 << 62)
	if err != nil && !errors.Is(err, machine.ErrAllDone) {
		return err
	}
	return nil
}

// Results is a JSON-marshalling snapshot of an instance's observable
// counters after a run. Fault-telemetry fields carry omitempty so that
// fault-free snapshots stay compact, and every field is deterministic for a
// given Spec.
type Results struct {
	// Flips counts hammer-induced bit flips (transient fault-injected
	// errors are reported separately below).
	Flips       int    `json:"flips"`
	Activations uint64 `json:"activations"`
	// Detections / DefenseRefreshes / SamplesTaken describe the ANVIL
	// detector when one is attached; DefenseRefreshes falls back to the
	// hardware defense's refresh count when that is attached instead.
	Detections       int    `json:"detections"`
	DefenseRefreshes uint64 `json:"defense_refreshes"`
	SamplesTaken     uint64 `json:"samples_taken"`
	// PMUDropped counts samples lost to a full PEBS buffer — the
	// experiment's own noise level, which fault injection can inflate via
	// Faults.PMU.BufferCap.
	PMUDropped uint64 `json:"pmu_dropped"`

	// Injected-fault telemetry (all zero without Spec.Faults).
	PMUInjectedDrops     uint64 `json:"pmu_injected_drops,omitempty"`
	PMUSkiddedSamples    uint64 `json:"pmu_skidded_samples,omitempty"`
	PMUDelayedOverflows  uint64 `json:"pmu_delayed_overflows,omitempty"`
	DRAMSkippedRefreshes uint64 `json:"dram_skipped_refreshes,omitempty"`
	ECCTransientSingle   uint64 `json:"ecc_transient_single,omitempty"`
	ECCTransientDouble   uint64 `json:"ecc_transient_double,omitempty"`
	TimersDelayed        uint64 `json:"timers_delayed,omitempty"`
	IRQCostCycles        uint64 `json:"irq_cost_cycles,omitempty"`

	// ECC scrubber outcomes (zero without Spec.ECCScrub).
	ECCCorrected     uint64 `json:"ecc_corrected,omitempty"`
	ECCUncorrectable uint64 `json:"ecc_uncorrectable,omitempty"`
}

// Results snapshots the instance's counters.
func (in *Instance) Results() Results {
	m := in.Machine
	r := Results{
		Flips:       m.Mem.DRAM.FlipCount(),
		Activations: m.Mem.DRAM.Stats().Activations,
		PMUDropped:  m.Mem.PMU.Dropped(),
	}
	if in.Detector != nil {
		st := in.Detector.Stats()
		r.Detections = len(st.Detections)
		r.DefenseRefreshes = st.Refreshes
		r.SamplesTaken = st.SamplesTaken
	} else if in.HW != nil {
		r.DefenseRefreshes = in.HW.Refreshes()
	}
	fc := fault.Snapshot(m)
	r.PMUInjectedDrops = fc.PMU.InjectedDrops
	r.PMUSkiddedSamples = fc.PMU.SkiddedSamples
	r.PMUDelayedOverflows = fc.PMU.DelayedOverflows
	r.DRAMSkippedRefreshes = fc.DRAM.SkippedRefreshes
	r.ECCTransientSingle = fc.DRAM.TransientSingle
	r.ECCTransientDouble = fc.DRAM.TransientDouble
	r.TimersDelayed = fc.Machine.DelayedTimers
	r.IRQCostCycles = uint64(fc.Machine.IRQCostCycles)
	if in.ECC != nil {
		r.ECCCorrected = in.ECC.Corrected()
		r.ECCUncorrectable = in.ECC.Uncorrectable()
	}
	return r
}

// RunUntilFlip drives the machine in fine slices until the first bit flip
// or the deadline. It returns the flip time and whether a flip occurred.
func (in *Instance) RunUntilFlip(deadline time.Duration) (time.Duration, bool, error) {
	m := in.Machine
	slice := m.Freq.Cycles(250 * time.Microsecond)
	end := m.Freq.Cycles(deadline)
	for now := sim.Cycles(0); now < end; now += slice {
		err := m.Run(now + slice)
		if err != nil && !errors.Is(err, machine.ErrAllDone) {
			return 0, false, err
		}
		if m.Mem.DRAM.FlipCount() > 0 {
			return m.Freq.Duration(m.Mem.DRAM.Flips()[0].Time), true, nil
		}
		if errors.Is(err, machine.ErrAllDone) {
			break
		}
	}
	return 0, false, nil
}
