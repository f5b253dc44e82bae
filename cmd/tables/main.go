// Command tables regenerates every table and figure of the ANVIL paper's
// evaluation on the simulated machine by enumerating the experiment
// registry, and prints them in order.
//
// Usage:
//
//	tables [-quick] [-seed N] [-parallel N] [-timeout D] [-keep-going] [-only table1,table3,...]
//	tables -journal DIR [-resume] [-max-retries N] [-budget 30s|200]
//	tables -json [-out results.json]
//	tables -submit URL [-api-key KEY]
//	tables -list
//	tables -validate results.json
//
// -quick shrinks run lengths (useful for smoke tests); -seed shards the
// stochastic machine components; -parallel caps the worker pool of
// multi-replicate experiments (parallelism changes wall-clock time only,
// never a reported number); -timeout bounds each replicate's wall-clock time;
// -keep-going records a failing experiment's error and moves on instead of
// aborting the run; -only selects a comma-separated subset of the registered
// experiment names (see -list).
//
// Durable sweeps: -journal DIR checkpoints every sweep's completed
// replicates to per-sweep journal files under DIR, and -resume merges them
// back instead of re-running (a killed run continues where it stopped, at
// any -parallel value, with byte-identical output). -max-retries re-runs
// transiently-failed replicates with seeded exponential backoff. -budget
// bounds each sweep — a duration ("30s") caps wall-clock time, an integer
// ("200") caps executed replicates — after which sweeps degrade gracefully:
// partial results are tagged truncated and the dropped replicates reported,
// never silently missing. Interrupting the process (SIGINT/SIGTERM) cancels
// in-flight sweeps promptly; with -journal the completed replicates are
// already checkpointed, and the exit message names the resume command.
// -json emits the structured results as a single JSON document on stdout
// (or to -out), a trend-trackable artifact that -validate checks for
// completeness.
//
// -submit URL runs nothing locally: each selected experiment is submitted
// as a job to the anvilserved instance at URL, waited on, and its artifact
// fetched into the same JSON document (so -validate works on served runs
// too). Identical specs are answered from the server's result cache;
// -api-key names the caller for the server's quota accounting.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	_ "repro/internal/experiments" // registers every table and figure
	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/internal/sweepd"
)

// document is the -json artifact: the run's inputs and every experiment's
// structured result, in registry order.
type document struct {
	Quick   bool          `json:"quick"`
	Seed    uint64        `json:"seed"`
	Results []namedResult `json:"results"`
}

type namedResult struct {
	Name    string            `json:"name"`
	Data    json.RawMessage   `json:"data"`
	Metrics []scenario.Metric `json:"metrics,omitempty"`
	// Err records a failed experiment under -keep-going; Data is null then.
	Err string `json:"error,omitempty"`
}

// options carries every parsed flag into run.
type options struct {
	quick      bool
	seed       uint64
	parallel   int
	stepBatch  int
	only       string
	timeout    time.Duration
	keepGoing  bool
	jsonOut    bool
	outPath    string
	journal    string
	resume     bool
	maxRetries int
	budget     string
	list       bool
	validate   string
	submit     string
	apiKey     string
	cpuProf    string
	memProf    string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tables: ")
	var o options
	flag.BoolVar(&o.quick, "quick", false, "shrink experiment durations")
	flag.Uint64Var(&o.seed, "seed", 0, "root seed for machine-level randomness (0 = calibrated defaults)")
	flag.IntVar(&o.parallel, "parallel", 0, "worker pool size for multi-replicate experiments (0 = GOMAXPROCS)")
	flag.IntVar(&o.stepBatch, "step-batch", 0, "machine batch cap: 1 forces per-op stepping (A/B escape hatch), 0 = default")
	flag.StringVar(&o.only, "only", "", "comma-separated subset of experiments to run")
	flag.DurationVar(&o.timeout, "timeout", 0, "per-replicate wall-clock deadline (0 = none)")
	flag.BoolVar(&o.keepGoing, "keep-going", false, "record a failing experiment's error and continue")
	flag.BoolVar(&o.jsonOut, "json", false, "emit structured results as JSON instead of text tables")
	flag.StringVar(&o.outPath, "out", "", "write the JSON document to this file (implies -json)")
	flag.StringVar(&o.journal, "journal", "", "directory for sweep checkpoint journals (enables kill-and-resume)")
	flag.BoolVar(&o.resume, "resume", false, "resume completed replicates from existing -journal files")
	flag.IntVar(&o.maxRetries, "max-retries", 0, "retry transiently-failed replicates up to N times with seeded backoff")
	flag.StringVar(&o.budget, "budget", "", "per-sweep budget: a duration (wall-clock) or an integer (replicate count)")
	flag.BoolVar(&o.list, "list", false, "list registered experiments and exit")
	flag.StringVar(&o.validate, "validate", "", "validate a -json artifact against the registry and exit")
	flag.StringVar(&o.submit, "submit", "", "submit experiments to the anvilserved instance at this base URL instead of running locally (implies -json)")
	flag.StringVar(&o.apiKey, "api-key", "", "caller identity for -submit quota accounting")
	flag.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&o.memProf, "memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if err := run(o); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// run is the audited single-exit body: every failure funnels back here as
// an error and leaves through main's one os.Exit.
func run(o options) (err error) {
	stopProfiles, err := profiling.Start(o.cpuProf, o.memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()

	if o.list {
		fmt.Print(listText(o.quick))
		return nil
	}
	if o.validate != "" {
		if err := validateArtifact(o.validate); err != nil {
			return err
		}
		fmt.Printf("%s: valid, covers all %d registered experiments\n", o.validate, len(scenario.Names()))
		return nil
	}
	if o.resume && o.journal == "" {
		return fmt.Errorf("-resume needs -journal: there is no journal directory to resume from")
	}
	sweepBudget, err := parseBudget(o.budget)
	if err != nil {
		return err
	}
	selected := map[string]bool{}
	for _, s := range strings.Split(o.only, ",") {
		if s = strings.TrimSpace(s); s != "" {
			if _, ok := scenario.Find(s); !ok {
				return fmt.Errorf("unknown experiment %q (known: %s)", s, strings.Join(scenario.Names(), ", "))
			}
			selected[s] = true
		}
	}
	want := func(name string) bool { return len(selected) == 0 || selected[name] }

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.submit != "" {
		return runSubmitted(ctx, o, sweepBudget, want)
	}
	return runLocal(ctx, o, sweepBudget, want)
}

// runLocal regenerates the selected experiments in-process.
func runLocal(ctx context.Context, o options, sweepBudget scenario.Budget, want func(string) bool) error {
	cfg := scenario.Config{
		Quick:      o.quick,
		Seed:       o.seed,
		Parallel:   o.parallel,
		StepBatch:  o.stepBatch,
		Timeout:    o.timeout,
		KeepGoing:  o.keepGoing,
		MaxRetries: o.maxRetries,
		Budget:     sweepBudget,
		Ctx:        ctx,
	}
	asJSON := o.jsonOut || o.outPath != ""

	doc := document{Quick: o.quick, Seed: o.seed}
	for _, e := range scenario.Experiments() {
		if !want(e.Name) {
			continue
		}
		ecfg := cfg
		if o.journal != "" {
			// Each experiment journals under its own name; the journaled
			// Config owns a fresh per-run sweep sequence.
			ecfg = cfg.WithJournal(o.journal, o.resume)
			ecfg.Sweep = e.Name
		}
		start := time.Now()
		res, err := e.Run(ecfg)
		if err != nil {
			if ctx.Err() != nil {
				// Interrupted: even under -keep-going there is no point
				// starting the next experiment — every sweep it runs would
				// be stillborn. With a journal the finished replicates are
				// already checkpointed.
				if o.journal != "" {
					return fmt.Errorf("%s interrupted: %w\ncheckpoints saved under %s; rerun with -journal %s -resume to continue", e.Name, err, o.journal, o.journal)
				}
				return fmt.Errorf("%s interrupted: %w", e.Name, err)
			}
			if !o.keepGoing {
				return fmt.Errorf("%s failed: %w", e.Name, err)
			}
			log.Printf("%s failed (continuing): %v", e.Name, err)
			if asJSON {
				doc.Results = append(doc.Results, namedResult{Name: e.Name, Err: err.Error()})
			}
			continue
		}
		elapsed := time.Since(start).Seconds()
		if asJSON {
			data, err := json.Marshal(res)
			if err != nil {
				return fmt.Errorf("%s: marshal: %w", e.Name, err)
			}
			nr := namedResult{Name: e.Name, Data: data}
			if m, ok := res.(scenario.Metricer); ok {
				nr.Metrics = m.Metrics()
			}
			doc.Results = append(doc.Results, nr)
			fmt.Fprintf(os.Stderr, "tables: %s regenerated in %.1fs\n", e.Name, elapsed)
		} else {
			fmt.Println(res.Render())
			fmt.Printf("  [%s regenerated in %.1fs]\n\n", e.Name, elapsed)
		}
	}
	if asJSON {
		return writeDocument(doc, o.outPath)
	}
	return nil
}

// runSubmitted hands the selected experiments to an anvilserved instance:
// submit, wait, fetch each artifact into the document. The server resumes
// and caches on its side; identical re-runs are answered without
// re-simulating anything.
func runSubmitted(ctx context.Context, o options, sweepBudget scenario.Budget, want func(string) bool) error {
	if o.journal != "" || o.resume {
		return fmt.Errorf("-journal/-resume are local-run flags; the server journals every job on its own data directory")
	}
	if sweepBudget.WallClock > 0 {
		return fmt.Errorf("-budget %v: wall-clock budgets are not supported with -submit (they are not content-addressable); use a replicate count or the server's -quota-wall", sweepBudget.WallClock)
	}
	client := &sweepd.Client{Base: o.submit, APIKey: o.apiKey}

	doc := document{Quick: o.quick, Seed: o.seed}
	for _, e := range scenario.Experiments() {
		if !want(e.Name) {
			continue
		}
		spec := sweepd.JobSpec{
			Experiment:       e.Name,
			Quick:            o.quick,
			Seed:             o.seed,
			BudgetReplicates: sweepBudget.Replicates,
			TimeoutMS:        o.timeout.Milliseconds(),
		}
		st, err := client.Submit(ctx, spec)
		if err != nil {
			return fmt.Errorf("%s: submitting: %w", e.Name, err)
		}
		how := "queued"
		switch {
		case st.Cached:
			how = "served from cache"
		case st.Deduped:
			how = "coalesced onto a live job"
		}
		log.Printf("%s: job %s %s", e.Name, st.ID, how)
		data, err := client.FetchResult(ctx, st.ID, 0)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("%s interrupted: %w\njob %s keeps running on the server; rerun -submit to pick up its result", e.Name, err, st.ID)
			}
			if !o.keepGoing {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			log.Printf("%s failed (continuing): %v", e.Name, err)
			doc.Results = append(doc.Results, namedResult{Name: e.Name, Err: err.Error()})
			continue
		}
		var art sweepd.Artifact
		if err := json.Unmarshal(data, &art); err != nil {
			return fmt.Errorf("%s: decoding artifact for job %s: %w", e.Name, st.ID, err)
		}
		doc.Results = append(doc.Results, namedResult{Name: e.Name, Data: art.Data, Metrics: art.Metrics})
	}
	return writeDocument(doc, o.outPath)
}

// writeDocument emits the JSON artifact to outPath or stdout.
func writeDocument(doc document, outPath string) error {
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if outPath != "" {
		return os.WriteFile(outPath, enc, 0o644)
	}
	_, err = os.Stdout.Write(enc)
	return err
}

// listText renders the -list table: every registered experiment with its
// estimated top-level replicate count under the given mode.
func listText(quick bool) string {
	cfg := scenario.Config{Quick: quick}
	mode := "full"
	if quick {
		mode = "quick"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %5s  %s\n", "EXPERIMENT", "REPS", "DESCRIPTION")
	total := 0
	for _, e := range scenario.Experiments() {
		reps := e.EstimatedReps(cfg)
		total += reps
		fmt.Fprintf(&b, "%-18s %5d  %s\n", e.Name, reps, e.Desc)
	}
	fmt.Fprintf(&b, "%-18s %5d  (%s mode; estimated top-level replicates)\n", "total", total, mode)
	return b.String()
}

// parseBudget reads the -budget flag: a time.Duration caps a sweep's
// wall-clock time, a bare integer caps its executed replicate count.
func parseBudget(s string) (scenario.Budget, error) {
	if s == "" {
		return scenario.Budget{}, nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		if n <= 0 {
			return scenario.Budget{}, fmt.Errorf("-budget %d: replicate budget must be positive", n)
		}
		return scenario.Budget{Replicates: n}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return scenario.Budget{}, fmt.Errorf("-budget %q: want a duration (30s) or a replicate count (200)", s)
	}
	if d <= 0 {
		return scenario.Budget{}, fmt.Errorf("-budget %v: wall-clock budget must be positive", d)
	}
	return scenario.Budget{WallClock: d}, nil
}

// validateArtifact checks that a -json document parses and covers every
// registered experiment with non-empty data.
func validateArtifact(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	have := map[string]bool{}
	for _, r := range doc.Results {
		if len(r.Data) == 0 || string(r.Data) == "null" {
			return fmt.Errorf("%s: experiment %q has empty data", path, r.Name)
		}
		have[r.Name] = true
	}
	var missing []string
	for _, name := range scenario.Names() {
		if !have[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: missing experiments: %s", path, strings.Join(missing, ", "))
	}
	return nil
}
