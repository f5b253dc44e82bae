package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"
)

// Config tunes experiment runs. Quick mode shrinks run lengths so the whole
// suite fits in unit-test budgets; full mode matches the paper's measurement
// horizons. Seed shards the stochastic machine components (see Spec.Seed);
// Parallel caps the worker pool used by multi-replicate experiments.
type Config struct {
	Quick bool
	// Seed is the base of every replicate seed an experiment derives (via
	// ReplicateSeed) and the Spec.Seed of single-run experiments.
	Seed uint64
	// Parallel is the worker count of RunReplicates sweeps; zero or
	// negative means GOMAXPROCS. Parallelism never changes results — only
	// wall-clock time.
	Parallel int
	// StepBatch is forwarded to every Spec an experiment builds
	// (Spec.StepBatch): 1 forces per-op stepping, larger values bound the
	// batched inner loop, zero keeps the machine default. Never changes a
	// reported number — only how the core schedules the same operations.
	StepBatch int
	// Timeout is the per-replicate wall-clock deadline of RunReplicates
	// sweeps; zero means none. Like Parallel it never changes a reported
	// number — a replicate either completes identically or fails.
	Timeout time.Duration
	// KeepGoing makes RunReplicates sweeps return completed replicates plus
	// a *SweepError instead of discarding the sweep on the first failure.
	KeepGoing bool
	// MaxRetries re-runs transiently-failed replicates (see Transient) up to
	// this many extra times with seeded exponential backoff.
	MaxRetries int
	// Budget bounds each sweep's wall-clock time or executed replicate
	// count; exhaustion truncates the sweep gracefully instead of failing
	// it. Zero means unlimited.
	Budget Budget
	// Journal, when non-empty, is a directory where every RunReplicates
	// sweep checkpoints one journal file per sweep (named by Sweep name and
	// per-run sequence), so a killed run can resume. Build journaling
	// Configs with WithJournal.
	Journal string
	// Resume merges completed replicates out of an existing journal instead
	// of re-running them. Meaningless without Journal.
	Resume bool
	// Sweep names the running experiment for journal files and meta
	// (cmd/tables sets it to the experiment name).
	Sweep string
	// Ctx, when non-nil, cancels RunReplicates sweeps early (cmd/tables
	// wires it to signal handling; nil means context.Background()).
	Ctx context.Context
	// OnProgress, when non-nil, observes every replicate a sweep completes
	// or resumes (see Options.OnProgress). cmd/anvilserved wires it to job
	// progress streaming; observation never changes results.
	OnProgress func(ProgressEvent)
	// Slots, when non-nil, restricts every sweep the experiment runs to the
	// listed replicate indices (see Options.Slots). Distributed workers use
	// it to execute their leased share of a Shardable experiment's sweep;
	// the replicates they do run are byte-identical to the unrestricted
	// sweep's.
	Slots []int
	// OnResult, when non-nil, receives each freshly-computed replicate's
	// canonical JSON (see Options.OnResult) — what a distributed worker
	// uploads to its coordinator. A non-nil error fails the replicate.
	OnResult func(rep int, raw json.RawMessage) error

	// sweepSeq numbers the journaled sweeps of one experiment run in call
	// order, which is deterministic, so a resumed run opens the same files.
	// Shared by pointer across the Config copies an experiment passes down.
	sweepSeq *uint64
}

// WithJournal returns a copy of the Config that checkpoints every sweep to a
// journal file under dir, resuming existing journals when resume is set.
func (c Config) WithJournal(dir string, resume bool) Config {
	c.Journal = dir
	c.Resume = resume
	c.sweepSeq = new(uint64)
	return c
}

// Context resolves Ctx.
func (c Config) Context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// RunOptions resolves the Config's runner settings. Journal wiring happens
// in RunReplicatesSweep, which owns the per-sweep journal lifecycle.
func (c Config) RunOptions() Options {
	return Options{
		Workers:    c.Workers(),
		Timeout:    c.Timeout,
		KeepGoing:  c.KeepGoing,
		MaxRetries: c.MaxRetries,
		Budget:     c.Budget,
		BaseSeed:   c.Seed,
		OnProgress: c.OnProgress,
		Slots:      c.Slots,
		OnResult:   c.OnResult,
	}
}

// ScaleDur shrinks full-length durations in quick mode.
func (c Config) ScaleDur(full time.Duration) time.Duration {
	if c.Quick {
		return full / 4
	}
	return full
}

// ScaleOps shrinks fixed-work op counts in quick mode.
func (c Config) ScaleOps(full uint64) uint64 {
	if c.Quick {
		return full / 4
	}
	return full
}

// Workers resolves Parallel to a concrete worker count.
func (c Config) Workers() int {
	if c.Parallel > 0 {
		return c.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Metric is one headline number of an experiment, named after the paper's
// quantities (ms-to-flip, refreshes/sec, normalized execution time, ...).
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Result is what an experiment returns: a structured value that marshals to
// JSON (for trend tracking) and renders to the paper's text table.
type Result interface {
	Render() string
}

// Metricer is optionally implemented by Results that expose headline
// metrics. The slice order must be deterministic.
type Metricer interface {
	Metrics() []Metric
}

// Experiment is one registered table or figure of the evaluation.
type Experiment struct {
	// Name is the registry key (table1, figure3, section45, ...).
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// Run regenerates the experiment.
	Run func(Config) (Result, error)
	// Reps, when set, estimates how many top-level replicates Run will
	// execute under the given Config — what listings and budget planning
	// report. Nil means a single monolithic run.
	Reps func(Config) int
	// Shardable declares that Run is exactly one top-level
	// RunReplicates/RunReplicatesSweep sweep of Reps(cfg) replicates, so a
	// distributed coordinator may shard its replicate indices across worker
	// processes (Config.Slots) and merge their uploads through the sweep's
	// seq-0 checkpoint journal. Experiments with multiple sequential sweeps,
	// or whose Reps differs from the first sweep's size, must leave it false.
	Shardable bool
}

// EstimatedReps resolves Reps; experiments without a sweep count as one
// replicate.
func (e Experiment) EstimatedReps(cfg Config) int {
	if e.Reps == nil {
		return 1
	}
	return e.Reps(cfg)
}

// The registry. Registration happens from init functions (a single
// goroutine, before main); lookups afterwards are read-only, so no locking
// is needed. Order is registration order — a deliberate slice, never map
// iteration, so every enumeration is deterministic.
var (
	registry      []Experiment
	registryIndex = map[string]int{}
)

// Register adds an experiment to the registry. It panics on a duplicate or
// invalid registration: both are programming errors in an init function.
func Register(e Experiment) {
	if e.Name == "" || e.Run == nil {
		panic("scenario: Register needs a name and a Run function") //lint:allow errpanic init-time registration; failing fast at startup is the contract
	}
	if _, dup := registryIndex[e.Name]; dup {
		//lint:allow errpanic init-time registration; failing fast at startup is the contract
		panic(fmt.Sprintf("scenario: experiment %q registered twice", e.Name))
	}
	registryIndex[e.Name] = len(registry)
	registry = append(registry, e)
}

// Experiments returns the registered experiments in registration order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Find returns the experiment registered under name.
func Find(name string) (Experiment, bool) {
	i, ok := registryIndex[name]
	if !ok {
		return Experiment{}, false
	}
	return registry[i], true
}

// Names returns the registered experiment names in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	return out
}
