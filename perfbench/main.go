// Command perfbench is the repository benchmark: it times the ANVIL
// simulator and the sweep service end to end on five workloads, checks
// their outputs, and, when traced, attributes the time to layers from spans
// around each call into a layer plus each layer's public counters.
//
//	bash perfbench/run.sh --workload hammer --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is the result: correctness, operations
// attempted and failed, and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1). The line before it is a report with host
// provenance, the output digest and the checks. See README.md.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	_ "repro/internal/experiments" // registers the experiments the service runs
)

// defaultSeed is the seed the pinned digests were recorded at.
const defaultSeed = 1

const (
	// setupSamples is how many set-up probes a run starts, half before its
	// timed pass and half after it, so that they sample the host at two
	// times; setup_s is their median, which a few slow probes cannot move.
	setupSamples = 20
	// setupTimeout bounds one set-up probe.
	setupTimeout = 60 * time.Second
	// readyLine is what a set-up probe prints once it is set up.
	readyLine = "ready"
)

// pinnedDigests are the output digests at defaultSeed. A seed without a pin
// is checked by the other output checks only.
var pinnedDigests = map[string]string{
	"hammer":  "ee5619b7297d37ed5b8db338f068b185d46d914a1f5ae8b747c4f68ef7c7f63f",
	"benign":  "787e8b4be6f9ce2f4863c78003ca69ea68ea94f616752e57fc9e088482242f7e",
	"defend":  "b32c06998b395c20e13212b80e83fc61981e36b1cc13a56742a581caeb4ecb31",
	"service": "a394e1e854c8a7886471ad56b6ac3ab53fc4b65edaa3fe1f7d86a8cd4f72f3fe",
	"lease":   "9bc178489088276c2f8b11507e62a6b6c3cb4846fd4731c354df44089ae2aa2c",
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"replicates_per_ref_s", "1/ref_s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Every workload reports all of
// them; a layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"scenario.build.calls", "count"},
	{"scenario.build.ms", "ms"},
	{"scenario.run.ms", "ms"},
	{"scenario.results.ms", "ms"},
	{"scenario.sweep.overhead_ms", "ms"},
	{"machine.ops", "count"},
	{"machine.loads", "count"},
	{"machine.stores", "count"},
	{"machine.flushes", "count"},
	{"machine.sim_ms", "ms"},
	{"machine.kernel_cycles", "cycles"},
	{"machine.host_ns_per_op", "ns"},
	{"cache.l1.hits", "count"},
	{"cache.l1.misses", "count"},
	{"cache.llc.hits", "count"},
	{"cache.llc.misses", "count"},
	{"cache.flushes", "count"},
	{"cache.llc.hit_ratio", "ratio"},
	{"dram.activations", "count"},
	{"dram.row_hits", "count"},
	{"dram.row_conflicts", "count"},
	{"dram.writes", "count"},
	{"dram.refresh_stalls", "count"},
	{"dram.flips", "count"},
	{"dram.row_hit_ratio", "ratio"},
	{"pmu.samples", "count"},
	{"pmu.dropped", "count"},
	{"anvil.stage1_windows", "count"},
	{"anvil.stage1_crossings", "count"},
	{"anvil.sample_windows", "count"},
	{"anvil.detections", "count"},
	{"anvil.refreshes", "count"},
	{"anvil.detect_ratio", "ratio"},
	{"job_fresh_p50_ms", "ms"},
	{"job_cached_p50_ms", "ms"},
	{"job_sharded_p50_ms", "ms"},
	{"lease_claim_upload_p50_ms", "ms"},
	{"sweepd.submit.calls", "count"},
	{"sweepd.submit.p50_ms", "ms"},
	{"sweepd.poll.calls", "count"},
	{"sweepd.queue_wait.p50_ms", "ms"},
	{"sweepd.result.p50_ms", "ms"},
	{"sweepd.result.bytes", "bytes"},
	{"sweepd.cache_hit_ratio", "ratio"},
	{"sweepd.retries", "count"},
	{"sweepd.job_fresh.tail_ms", "ms"},
	{"sweepd.job_fresh.tail_pct", "%"},
	{"sweepd.job_fresh.tail_samples", "count"},
	{"sweepd.job_cached.tail_ms", "ms"},
	{"sweepd.job_cached.tail_pct", "%"},
	{"sweepd.job_cached.tail_samples", "count"},
	{"sweepd.store.journal_bytes", "bytes"},
	{"sweepd.store.artifact_bytes", "bytes"},
	{"lease.claim.calls", "count"},
	{"lease.claim.useful_ratio", "ratio"},
	{"lease.renew.calls", "count"},
	{"lease.upload.calls", "count"},
	{"lease.upload.p50_ms", "ms"},
	{"lease.upload.duplicates", "count"},
	{"lease.release.calls", "count"},
	{"workerd.slot.p50_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_frac", "ratio"},
}

// runConfig is the parsed command line.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// workdir holds everything a run writes: service data directories and
	// span files.
	workdir string
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
	report            map[string]any
}

func newOutcome() outcome {
	return outcome{e2e: map[string]float64{}, layer: map[string]float64{}, report: map[string]any{}}
}

// fail records a failed output check.
func (o *outcome) fail(msg string) { o.problems = append(o.problems, msg) }

// setDigest reports the digest of a workload's deterministic output and
// checks it against the pin when the seed has one.
func (o *outcome) setDigest(workload string, seed uint64, v any) {
	sum := sha256.Sum256(mustJSON(v))
	d := hex.EncodeToString(sum[:])
	o.report["digest"] = d
	if pin, ok := pinnedDigests[workload]; ok && seed == defaultSeed {
		o.report["digest_pinned"] = pin
		if d != pin {
			o.fail(fmt.Sprintf("digest %s at seed %d differs from the pinned %s", d, seed, pin))
		}
	}
}

// writeTrace writes the spans as Chrome trace-event JSON into the work
// directory and reports each span name's total self time.
func (o *outcome) writeTrace(cfg runConfig, workload string, spans []Span) error {
	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.json", workload, cfg.seed))
	if err := WriteChrome(path, spans); err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	o.report["span_file"] = path
	self := map[string]float64{}
	for name, d := range SelfTimes(spans) {
		self[name] = ms(d)
	}
	o.report["self_ms"] = self
	return nil
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshalling %T: %v", v, err))
	}
	return raw
}

// workloadDef is one workload's run and its set-up alone. The set-up returns
// what undoes it; a set-up probe (--setup-only) performs it, reports ready
// and undoes it.
type workloadDef struct {
	run   func(string, runConfig) (outcome, error)
	setup func(string, runConfig) (undo func() error, err error)
}

// workloads maps each workload name to its functions.
var workloads = map[string]workloadDef{
	"hammer":  {runSim, setupSim},
	"benign":  {runSim, setupSim},
	"defend":  {runSim, setupSim},
	"service": {runService, setupService},
	"lease":   {runService, setupService},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: hammer, benign, defend, service or lease")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 45, "length of the timed pass in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for data directories and span files")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print "+readyLine+", undo the set-up and exit (a set-up probe)")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload hammer|benign|defend|service|lease, --seconds > 0 and --trace 0|1")
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workdir: *workdir,
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *setupOnly {
		return probeSetup(wl, *name, cfg)
	}
	host := hostInfo()
	o, err := wl.run(*name, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", p)
	}

	defs, values := endToEnd, o.e2e
	if cfg.trace {
		defs, values = perLayer, o.layer
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": values[d.name], "unit": d.unit}
	}
	o.report["workload"] = *name
	o.report["seed"] = cfg.seed
	o.report["seconds"] = cfg.seconds.Seconds()
	o.report["trace"] = cfg.trace
	o.report["host"] = host
	o.report["problems"] = o.problems
	// Every end-to-end figure of the untraced pass, with its unit: the
	// end-to-end metrics of BENCHMARK.json plus failed_frac, the wall-clock
	// rates and, on the service workloads, the per-kind job latencies.
	e2e := map[string]map[string]any{
		"failed_frac": {"value": ratio(float64(o.failed), float64(o.attempted)), "unit": "ratio"},
	}
	for name, v := range o.e2e {
		e2e[name] = map[string]any{"value": v, "unit": unitOf(name)}
	}
	o.report["end_to_end"] = e2e
	fmt.Println(string(mustJSON(map[string]any{"report": o.report})))
	fmt.Println(string(mustJSON(map[string]any{
		"correct":   len(o.problems) == 0 && o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})))
	return 0
}

// reportOnly are end-to-end figures the report prints beside the metrics.
var reportOnly = []metricDef{{"replicates_per_cpu_s", "1/cpu_s"}, {"replicates_per_s", "1/s"}, {"jobs_per_s", "1/s"}}

// unitOf finds a metric's unit in the metric lists.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer, reportOnly} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// hostInfo records where the numbers came from, so figures from different
// hosts are not compared silently.
func hostInfo() map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) >= 3 {
			h["loadavg"] = strings.Join(f[:3], " ")
		}
	}
	return h
}

// cpuSeconds is the CPU time the process has used so far, user and system.
// Over a timed pass, CPU time ÷ wall time well below what the workload
// normally shows means the host took the CPU away (steal, preemption), so
// the report prints it beside the load average.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set size so far. Workloads read
// it right after the timed pass, before the output checks run.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// probeSetup is the body of a set-up probe: the workload's set-up, the
// ready line, and the set-up undone. It exits non-zero if any step fails.
func probeSetup(wl workloadDef, name string, cfg runConfig) int {
	undo, err := wl.setup(name, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", name, err)
		return 1
	}
	fmt.Println(readyLine)
	if err := undo(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up undo: %v\n", name, err)
		return 1
	}
	return 0
}

// measureSetup starts this binary n times as a set-up probe and times each
// from its start to its ready line: the Go runtime's and the packages'
// initialisation (the experiment registry), then the workload's set-up and
// warm-up. Each probe is a new process, so every sample pays the
// one-time costs that a single process would pay only once. Each probe is
// one operation; it fails if it exits non-zero or never reports ready.
func (o *outcome) measureSetup(name string, cfg runConfig, n int) []float64 {
	exe, err := os.Executable()
	if err != nil {
		o.attempted++
		o.failed++
		o.fail("set-up probe: " + err.Error())
		return nil
	}
	var times []float64
	for i := 0; i < n; i++ {
		o.attempted++
		d, err := probe(exe, name, cfg)
		if err != nil {
			o.failed++
			o.fail(fmt.Sprintf("set-up probe %d: %v", i, err))
			continue
		}
		times = append(times, d.Seconds())
	}
	return times
}

// probe runs one set-up probe and returns its start → ready time.
func probe(exe, name string, cfg runConfig) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--setup-only", "--workload", name,
		"--seed", strconv.FormatUint(cfg.seed, 10), "--workdir", cfg.workdir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(start)
	io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if readErr != nil || strings.TrimSpace(line) != readyLine {
		return 0, fmt.Errorf("no ready line (read %q)", line)
	}
	return d, nil
}
