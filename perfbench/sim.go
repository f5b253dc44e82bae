package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simCase is one replicate of a simulator workload: a scenario and how far
// to run it.
type simCase struct {
	Label string
	Spec  scenario.Spec
	// UntilFlip runs to the first bit flip, with Horizon as the deadline;
	// otherwise the case runs for Horizon of simulated time.
	UntilFlip bool
	Horizon   time.Duration
}

// simWorkload generates its replicates from the workload seed. A round is
// one pass over the shape of one registered table (Table 1: three attacks;
// Table 4: twelve profiles; Table 3: four attack/load points) at replicate
// seeds drawn from the workload seed, and is run as one scenario.RunSweep
// call. Every round of a run is the same, so a long run recomputes
// identical replicates, which must give identical records, and every
// round's time measures the same work.
type simWorkload struct {
	round func(seed uint64) []simCase
	// warmup is the set-up's replicate: a fixed spec of the workload's
	// shape run for a short prefix, the same at every seed, so set-up time
	// does not depend on the seed.
	warmup simCase
}

const (
	// hammerDeadline is Table 1's deadline for the first flip.
	hammerDeadline = 192 * time.Millisecond
	// benignHorizon is the simulated time each SPEC profile runs for.
	benignHorizon = 50 * time.Millisecond
	// defendHorizon is the simulated time each attack point runs for: long
	// enough for ANVIL to detect and refresh in every point.
	defendHorizon = 16 * time.Millisecond
	// warmupHorizon is the simulated prefix a warm-up replicate runs for.
	warmupHorizon = time.Millisecond
)

var simWorkloads = map[string]simWorkload{
	// hammer: table1-sweep's three attacks at its first replicate seed
	// for the workload seed, unprotected, each run to its first flip.
	"hammer": {
		round: func(seed uint64) []simCase {
			s := scenario.ReplicateSeed(seed, 0)
			var out []simCase
			for _, k := range scenario.AttackKinds() {
				out = append(out, simCase{
					Label:     fmt.Sprintf("seed0/%s", k),
					Spec:      scenario.Spec{Cores: 1, Seed: s, Attack: &scenario.Attack{Kind: k}},
					UntilFlip: true,
					Horizon:   hammerDeadline,
				})
			}
			return out
		},
		warmup: simCase{
			Label:   "warmup/double-flush",
			Spec:    scenario.Spec{Cores: 1, Attack: &scenario.Attack{Kind: scenario.DoubleSidedFlush}},
			Horizon: warmupHorizon,
		},
	},
	// benign: Table 4's shape, every SPEC2006 profile alone on one core
	// under ANVIL-baseline.
	"benign": {
		round: func(seed uint64) []simCase {
			s := scenario.ReplicateSeed(seed, 0)
			var out []simCase
			for _, p := range workload.SPEC2006() {
				out = append(out, simCase{
					Label: fmt.Sprintf("seed0/%s", p.Name),
					Spec: scenario.Spec{Cores: 1, Seed: s, Defense: scenario.ANVILBaseline,
						Workloads: []scenario.Workload{{Name: p.Name}}},
					Horizon: benignHorizon,
				})
			}
			return out
		},
		warmup: simCase{
			Label: "warmup/bzip2",
			Spec: scenario.Spec{Cores: 1, Defense: scenario.ANVILBaseline,
				Workloads: []scenario.Workload{{Name: "bzip2"}}},
			Horizon: warmupHorizon,
		},
	},
	// defend: Table 3's shape, both double-sided attacks under
	// ANVIL-baseline on a four-core machine, alone and beside the heavy
	// co-runner trio, at Table 3's first trial seed for the workload seed.
	"defend": {
		round: func(seed uint64) []simCase {
			var out []simCase
			for _, k := range []scenario.AttackKind{scenario.DoubleSidedFlush, scenario.ClflushFree} {
				for _, heavy := range []bool{true, false} {
					out = append(out, defendCase(fmt.Sprintf("trial0/%s/heavy=%v", k, heavy), seed, k, heavy))
				}
			}
			return out
		},
		warmup: func() simCase {
			c := defendCase("warmup/clflush-free/heavy=true", 0, scenario.ClflushFree, true)
			c.Horizon = warmupHorizon
			return c
		}(),
	},
}

func defendCase(label string, seed uint64, k scenario.AttackKind, heavy bool) simCase {
	spec := scenario.Spec{Cores: 4, Seed: seed, Attack: &scenario.Attack{Kind: k}, Defense: scenario.ANVILBaseline}
	if heavy {
		for _, name := range workload.HeavyLoadNames() {
			spec.Workloads = append(spec.Workloads, scenario.Workload{Name: name})
		}
	}
	return simCase{Label: label, Spec: spec, Horizon: defendHorizon}
}

// counts are the public per-layer counters of one replicate's machine,
// read after it ran. Every field is deterministic for a given Spec.
type counts struct {
	Ops, Loads, Stores, Flushes    uint64
	SimNS                          int64
	KernelCycles                   uint64
	L1Hits, L1Misses               uint64
	LLCHits, LLCMisses             uint64
	CacheFlushes                   uint64
	Activations, RowHits           uint64
	RowConflicts, DRAMWrites       uint64
	DRAMAccesses, RefreshStalls    uint64
	Flips                          uint64
	PMUSamples, PMUDropped         uint64
	Stage1Windows, Stage1Crossings uint64
	SampleWindows, Detections      uint64
	Refreshes                      uint64
}

func (c *counts) add(o counts) {
	c.Ops += o.Ops
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.Flushes += o.Flushes
	c.SimNS += o.SimNS
	c.KernelCycles += o.KernelCycles
	c.L1Hits += o.L1Hits
	c.L1Misses += o.L1Misses
	c.LLCHits += o.LLCHits
	c.LLCMisses += o.LLCMisses
	c.CacheFlushes += o.CacheFlushes
	c.Activations += o.Activations
	c.RowHits += o.RowHits
	c.RowConflicts += o.RowConflicts
	c.DRAMWrites += o.DRAMWrites
	c.DRAMAccesses += o.DRAMAccesses
	c.RefreshStalls += o.RefreshStalls
	c.Flips += o.Flips
	c.PMUSamples += o.PMUSamples
	c.PMUDropped += o.PMUDropped
	c.Stage1Windows += o.Stage1Windows
	c.Stage1Crossings += o.Stage1Crossings
	c.SampleWindows += o.SampleWindows
	c.Detections += o.Detections
	c.Refreshes += o.Refreshes
}

// readCounts reads every layer's public counters off a finished instance.
func readCounts(in *scenario.Instance) counts {
	m := in.Machine
	var c counts
	for _, core := range m.Cores {
		c.Ops += core.Stats.Ops
		c.Loads += core.Stats.Loads
		c.Stores += core.Stats.Stores
		c.Flushes += core.Stats.Flushes
		c.KernelCycles += uint64(core.Stats.KernelCycles)
	}
	c.SimNS = int64(m.Freq.Duration(m.Time()))
	caches := m.Mem.Caches
	l1, llc := caches.Level(0).Stats(), caches.LLC().Stats()
	c.L1Hits, c.L1Misses = l1.Hits, l1.Misses
	c.LLCHits, c.LLCMisses = llc.Hits, llc.Misses
	c.CacheFlushes = caches.Stats().Flushes
	d := m.Mem.DRAM.Stats()
	c.Activations, c.RowHits, c.RowConflicts = d.Activations, d.RowHits, d.RowConflicts
	c.DRAMWrites, c.DRAMAccesses = d.Writes, d.Reads+d.Writes
	c.RefreshStalls, c.Flips = d.RefreshStalls, uint64(d.Flips)
	c.PMUDropped = m.Mem.PMU.Dropped()
	if in.Detector != nil {
		st := in.Detector.Stats()
		c.PMUSamples = st.SamplesTaken
		c.Stage1Windows, c.Stage1Crossings = st.Stage1Windows, st.Stage1Crossings
		c.SampleWindows, c.Detections = st.SampleWindows, uint64(len(st.Detections))
		c.Refreshes = st.Refreshes
	}
	return c
}

// record is everything deterministic one replicate produced: the marshalled
// scenario.Results, the Table 1 quantities of a run to first flip, and the
// per-layer counts.
type record struct {
	Label    string          `json:"label"`
	Results  json.RawMessage `json:"results"`
	Flipped  bool            `json:"flipped,omitempty"`
	FlipNS   int64           `json:"flip_ns,omitempty"`
	Accesses uint64          `json:"aggressor_accesses,omitempty"`
	Counts   counts          `json:"counts"`
}

// runCase builds and runs one replicate on a fresh machine, with one span
// per call into the scenario layer when traced.
func runCase(c simCase, rec *Recorder, parent int, key string) (record, error) {
	out := record{Label: c.Label}
	id := rec.Begin("scenario.Build", key, parent)
	in, err := scenario.Build(c.Spec)
	rec.End(id)
	if err != nil {
		return out, err
	}
	if c.UntilFlip {
		id = rec.Begin("scenario.RunUntilFlip", key, parent)
		var ft time.Duration
		ft, out.Flipped, err = in.RunUntilFlip(c.Horizon)
		out.FlipNS = int64(ft)
	} else {
		id = rec.Begin("scenario.RunFor", key, parent)
		err = in.RunFor(c.Horizon)
	}
	rec.End(id)
	if err != nil {
		return out, err
	}
	id = rec.Begin("scenario.Results", key, parent)
	out.Results, err = json.Marshal(in.Results())
	rec.End(id)
	if err != nil {
		return out, err
	}
	if in.Hammer != nil {
		out.Accesses = in.Hammer.AggressorAccesses()
	}
	out.Counts = readCounts(in)
	return out, nil
}

// simPass is one pass of whole rounds.
type simPass struct {
	rounds   [][]record
	roundMS  []float64 // wall time of each round
	roundCPU []float64 // the process's CPU time during each round, in ms
	refMS    []float64 // reference-kernel samples taken between rounds
	wall     time.Duration
	attempts int
	failures int
}

// runSimPass runs whole rounds at one worker: exactly `rounds` of them when
// positive, else rounds until `budget` has elapsed (at least one). Each
// round is one scenario.RunSweep, followed by refPerRound reference-kernel
// samples outside the round's times.
func runSimPass(w simWorkload, seed uint64, rounds int, budget time.Duration, rec *Recorder) simPass {
	var p simPass
	cases := w.round(seed)
	start := time.Now()
	for r := 0; ; r++ {
		if rounds > 0 && r == rounds || rounds <= 0 && r > 0 && time.Since(start) >= budget {
			break
		}
		t, cpu := time.Now(), cpuSeconds()
		sweep := rec.Begin("scenario.RunSweep", fmt.Sprintf("round %d", r), 0)
		out, _, err := scenario.RunSweep(context.Background(), len(cases),
			scenario.Options{Workers: 1, KeepGoing: true},
			func(_ context.Context, i int) (record, error) {
				return runCase(cases[i], rec, sweep, fmt.Sprintf("%d.%d", r, i))
			})
		rec.End(sweep)
		p.roundMS = append(p.roundMS, ms(time.Since(t)))
		p.roundCPU = append(p.roundCPU, 1000*(cpuSeconds()-cpu))
		p.refMS = append(p.refMS, refSamples(refPerRound)...)
		p.attempts += len(cases)
		var se *scenario.SweepError
		if errors.As(err, &se) {
			p.failures += len(se.Failures)
		} else if err != nil {
			p.failures += len(cases)
		}
		p.rounds = append(p.rounds, out)
	}
	p.wall = time.Since(start)
	return p
}

func (p simPass) replicates() int { return p.attempts - p.failures }

func (p simPass) total() counts {
	var c counts
	for _, round := range p.rounds {
		for _, r := range round {
			c.add(r.Counts)
		}
	}
	return c
}

// pick draws a seed-chosen index below n, for the checks that re-run one
// case.
func pick(seed uint64, salt uint64, n int) int {
	return sim.NewRand(seed ^ salt).Intn(n)
}

// setupSim is a simulator workload's set-up: its warm-up replicate. It
// leaves nothing to undo.
func setupSim(name string, _ runConfig) (func() error, error) {
	if _, err := runCase(simWorkloads[name].warmup, nil, 0, ""); err != nil {
		return nil, fmt.Errorf("warm-up replicate: %w", err)
	}
	return func() error { return nil }, nil
}

// runSim runs a simulator workload: the set-up probes, its own set-up, the
// timed pass, and the output checks; with trace, also the traced pass over
// the same rounds.
func runSim(name string, cfg runConfig) (outcome, error) {
	w := simWorkloads[name]
	o := newOutcome()

	setups := o.measureSetup(name, cfg, setupSamples/2)
	if _, err := setupSim(name, cfg); err != nil {
		return o, err
	}

	cpu := cpuSeconds()
	timed := runSimPass(w, cfg.seed, 0, cfg.seconds, nil)
	o.report["cpu_per_wall"] = (cpuSeconds() - cpu) / timed.wall.Seconds()
	o.e2e["max_rss_mb"] = maxRSSMB()
	setups = append(setups, o.measureSetup(name, cfg, setupSamples-setupSamples/2)...)
	o.attempted += timed.attempts
	o.failed += timed.failures
	// Every round does the same work, so the median round is the steady
	// figure, and dividing it by the reference kernel's median takes out
	// most of the host's changes of speed; the report keeps the raw rates,
	// every round's wall and CPU time and every kernel sample.
	perRound := float64(timed.replicates()) / float64(len(timed.rounds))
	o.e2e["setup_s"] = median(setups)
	o.report["setup_s_each"] = setups
	o.e2e["replicates_per_ref_s"] = perRefSecond(perRound, median(timed.roundCPU), timed.refMS)
	o.e2e["replicates_per_cpu_s"] = perRound / (median(timed.roundCPU) / 1000)
	o.e2e["replicates_per_s"] = perRound / (median(timed.roundMS) / 1000)
	o.report["mean_replicates_per_s"] = float64(timed.replicates()) / timed.wall.Seconds()
	o.report["ref_ms"] = median(timed.refMS)
	o.report["ref_ms_each"] = timed.refMS

	o.checkSimRepeats(timed)
	o.checkReference(w, cfg.seed, timed)
	o.setDigest(name, cfg.seed, timed.rounds[0])
	o.report["rounds"] = len(timed.rounds)
	o.report["round_ms"] = timed.roundMS
	o.report["round_cpu_ms"] = timed.roundCPU
	o.report["replicates"] = timed.replicates()
	o.report["facts"] = simFacts(timed)

	if !cfg.trace {
		return o, nil
	}
	rec := NewRecorder()
	traced := runSimPass(w, cfg.seed, len(timed.rounds), 0, rec)
	o.attempted += traced.attempts
	o.failed += traced.failures
	if a, b := mustJSON(timed.rounds), mustJSON(traced.rounds); !bytes.Equal(a, b) {
		o.fail("the traced pass produced different records or per-layer counts than the untraced pass")
	}
	spans := rec.Spans()
	o.layer = simLayers(timed.total(), spans)
	o.layer["trace.spans"] = float64(len(spans))
	o.layer["trace.overhead_frac"] = median(traced.roundMS)/median(timed.roundMS) - 1
	return o, o.writeTrace(cfg, name, spans)
}

// checkSimRepeats requires every round to reproduce round 0 exactly.
func (o *outcome) checkSimRepeats(p simPass) {
	first := mustJSON(p.rounds[0])
	for r := 1; r < len(p.rounds); r++ {
		if !bytes.Equal(mustJSON(p.rounds[r]), first) {
			o.fail(fmt.Sprintf("round %d differs from round 0, which ran the same specs", r))
		}
	}
}

// checkReference re-runs one seed-chosen replicate of round 0 per-op
// (Spec.StepBatch 1, the reference stepping) and requires the identical
// record.
func (o *outcome) checkReference(w simWorkload, seed uint64, p simPass) {
	cases := w.round(seed)
	i := pick(seed, 0x5eed_cafe, len(cases))
	c := cases[i]
	c.Spec.StepBatch = 1
	ref, err := runCase(c, nil, 0, "")
	o.attempted++
	if err != nil {
		o.failed++
		o.fail(fmt.Sprintf("per-op reference of %s: %v", c.Label, err))
		return
	}
	if !bytes.Equal(mustJSON(ref), mustJSON(p.rounds[0][i])) {
		o.failed++
		o.fail(fmt.Sprintf("per-op reference of %s differs from the batched run", c.Label))
	}
	o.report["reference"] = c.Label
}

// simFacts reports the paper-shape quantities of round 0 as counts: flips
// and aggressor accesses per attack, detections and selective refreshes.
func simFacts(p simPass) map[string]any {
	facts := map[string]any{}
	for _, r := range p.rounds[0] {
		var res scenario.Results
		if json.Unmarshal(r.Results, &res) != nil {
			continue
		}
		f := map[string]uint64{"flips": uint64(res.Flips), "detections": uint64(res.Detections),
			"refreshes": res.DefenseRefreshes}
		if r.Accesses > 0 {
			f["aggressor_accesses"] = r.Accesses
		}
		facts[r.Label] = f
	}
	return facts
}

// simLayers derives the per-layer metrics of a simulator workload from its
// counts and the traced pass's spans.
func simLayers(c counts, spans []Span) map[string]float64 {
	var build, run, results, sweeps time.Duration
	builds := 0
	for _, s := range spans {
		switch s.Name {
		case "scenario.Build":
			build += s.Dur()
			builds++
		case "scenario.RunUntilFlip", "scenario.RunFor":
			run += s.Dur()
		case "scenario.Results":
			results += s.Dur()
		case "scenario.RunSweep":
			sweeps += s.Dur()
		}
	}
	reps := build + run + results
	return map[string]float64{
		"scenario.build.calls":       float64(builds),
		"scenario.build.ms":          ms(build),
		"scenario.run.ms":            ms(run),
		"scenario.results.ms":        ms(results),
		"scenario.sweep.overhead_ms": ms(sweeps - reps),
		"machine.ops":                float64(c.Ops),
		"machine.loads":              float64(c.Loads),
		"machine.stores":             float64(c.Stores),
		"machine.flushes":            float64(c.Flushes),
		"machine.sim_ms":             float64(c.SimNS) / 1e6,
		"machine.kernel_cycles":      float64(c.KernelCycles),
		"machine.host_ns_per_op":     ratio(float64(run.Nanoseconds()), float64(c.Ops)),
		"cache.l1.hits":              float64(c.L1Hits),
		"cache.l1.misses":            float64(c.L1Misses),
		"cache.llc.hits":             float64(c.LLCHits),
		"cache.llc.misses":           float64(c.LLCMisses),
		"cache.flushes":              float64(c.CacheFlushes),
		"cache.llc.hit_ratio":        ratio(float64(c.LLCHits), float64(c.LLCHits+c.LLCMisses)),
		"dram.activations":           float64(c.Activations),
		"dram.row_hits":              float64(c.RowHits),
		"dram.row_conflicts":         float64(c.RowConflicts),
		"dram.writes":                float64(c.DRAMWrites),
		"dram.refresh_stalls":        float64(c.RefreshStalls),
		"dram.flips":                 float64(c.Flips),
		"dram.row_hit_ratio":         ratio(float64(c.RowHits), float64(c.DRAMAccesses)),
		"pmu.samples":                float64(c.PMUSamples),
		"pmu.dropped":                float64(c.PMUDropped),
		"anvil.stage1_windows":       float64(c.Stage1Windows),
		"anvil.stage1_crossings":     float64(c.Stage1Crossings),
		"anvil.sample_windows":       float64(c.SampleWindows),
		"anvil.detections":           float64(c.Detections),
		"anvil.refreshes":            float64(c.Refreshes),
		"anvil.detect_ratio":         ratio(float64(c.Detections), float64(c.Stage1Crossings)),
	}
}
