package workerd

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweepd"
)

// The workerd test registry (names are distinct from the sweepd test
// experiments — each test binary registers its own):
//
//   - workerd-test-chaos: 16 replicates of ~40ms — wide enough a window to
//     SIGKILL a worker or partition its link mid-sweep.
//   - workerd-test-slow: 4 replicates of ~250ms — the SIGTERM-mid-slot
//     scenario.
//   - workerd-test-gate: 2 replicates parked on a gate — deterministic
//     soft-stop semantics, in-process.
//   - workerd-test-fail: 4 instant replicates, of which replicate 1 always
//     fails — a slot no worker can compute.
//   - workerd-test-keepgoing: the same sweep run keep-going, so replicate
//     1's failure becomes a zero row instead of the run's error.
const (
	wexpChaos     = "workerd-test-chaos"
	wexpSlow      = "workerd-test-slow"
	wexpGate      = "workerd-test-gate"
	wexpFail      = "workerd-test-fail"
	wexpKeepGoing = "workerd-test-keepgoing"

	wchaosReps = 16
	wslowReps  = 4
	wgateReps  = 2
	wfailReps  = 4
)

// gateCh parks workerd-test-gate replicates; startedCh announces that a
// replicate has begun. The in-process soft-stop test (re)makes both.
var (
	gateCh    chan struct{}
	startedCh chan struct{}
)

// wval is the deterministic per-replicate value of every test experiment.
func wval(seed uint64, rep int) uint64 { return scenario.ReplicateSeed(seed, rep) % 1_000_003 }

// wResult is the artifact payload; it round-trips exactly through JSON.
type wResult struct {
	Experiment string   `json:"experiment"`
	Values     []uint64 `json:"values"`
}

func (r *wResult) Render() string { return fmt.Sprintf("%s: %d values", r.Experiment, len(r.Values)) }

// mkRun builds a single-sweep Run function of n replicates, each sleeping
// delay of host wall-clock.
func mkRun(name string, n int, delay time.Duration) func(scenario.Config) (scenario.Result, error) {
	return func(cfg scenario.Config) (scenario.Result, error) {
		vals, err := scenario.RunReplicates(cfg, n, func(rep int) (uint64, error) {
			if delay > 0 {
				time.Sleep(delay)
			}
			return wval(cfg.Seed, rep), nil
		})
		if err != nil {
			return nil, err
		}
		return &wResult{Experiment: name, Values: vals}, nil
	}
}

func init() {
	scenario.Register(scenario.Experiment{
		Name:      wexpChaos,
		Desc:      "workerd test: 16 slow replicates for kill/partition windows",
		Run:       mkRun(wexpChaos, wchaosReps, 40*time.Millisecond),
		Reps:      func(scenario.Config) int { return wchaosReps },
		Shardable: true,
	})
	scenario.Register(scenario.Experiment{
		Name:      wexpSlow,
		Desc:      "workerd test: 4 very slow replicates for SIGTERM-mid-slot",
		Run:       mkRun(wexpSlow, wslowReps, 250*time.Millisecond),
		Reps:      func(scenario.Config) int { return wslowReps },
		Shardable: true,
	})
	scenario.Register(scenario.Experiment{
		Name: wexpGate,
		Desc: "workerd test: gated replicates for deterministic soft stops",
		Run: func(cfg scenario.Config) (scenario.Result, error) {
			gate, started := gateCh, startedCh
			vals, err := scenario.RunReplicates(cfg, wgateReps, func(rep int) (uint64, error) {
				if started != nil {
					started <- struct{}{}
				}
				if gate != nil {
					<-gate
				}
				return wval(cfg.Seed, rep), nil
			})
			if err != nil {
				return nil, err
			}
			return &wResult{Experiment: wexpGate, Values: vals}, nil
		},
		Reps:      func(scenario.Config) int { return wgateReps },
		Shardable: true,
	})
	scenario.Register(scenario.Experiment{
		Name:      wexpFail,
		Desc:      "workerd test: a sweep whose replicate 1 always fails",
		Run:       mkFailingRun(wexpFail, false),
		Reps:      func(scenario.Config) int { return wfailReps },
		Shardable: true,
	})
	scenario.Register(scenario.Experiment{
		Name:      wexpKeepGoing,
		Desc:      "workerd test: a keep-going sweep whose replicate 1 always fails",
		Run:       mkFailingRun(wexpKeepGoing, true),
		Reps:      func(scenario.Config) int { return wfailReps },
		Shardable: true,
	})
}

// mkFailingRun builds a sweep of wfailReps replicates whose replicate 1
// always fails: the run's error, or — keep-going — a zero row.
func mkFailingRun(name string, keepGoing bool) func(scenario.Config) (scenario.Result, error) {
	return func(cfg scenario.Config) (scenario.Result, error) {
		cfg.KeepGoing = keepGoing
		vals, err := scenario.RunReplicates(cfg, wfailReps, func(rep int) (uint64, error) {
			if rep == 1 {
				return 0, errors.New("replicate 1 always fails")
			}
			return wval(cfg.Seed, rep), nil
		})
		var sweep *scenario.SweepError
		if err != nil && !(keepGoing && errors.As(err, &sweep)) {
			return nil, err
		}
		return &wResult{Experiment: name, Values: vals}, nil
	}
}

// golden computes the artifact bytes an uninterrupted single-process run
// serves for a spec — the byte-identity baseline of every chaos scenario.
func golden(t *testing.T, spec sweepd.JobSpec) []byte {
	t.Helper()
	exp, ok := scenario.Find(spec.Experiment)
	if !ok {
		t.Fatalf("experiment %q not registered", spec.Experiment)
	}
	res, err := exp.Run(scenario.Config{Quick: spec.Quick, Seed: spec.Seed})
	if err != nil {
		t.Fatalf("golden run of %s: %v", spec.Experiment, err)
	}
	raw, err := sweepd.MarshalArtifact(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// coordinator is an in-process anvilserved: store + server + HTTP listener.
type coordinator struct {
	store  *sweepd.Store
	server *sweepd.Server
	http   *httptest.Server
	client *sweepd.Client
}

// startCoordinator serves a distributing sweepd server over a fresh store.
func startCoordinator(t *testing.T, opts sweepd.ServerOptions) *coordinator {
	t.Helper()
	store, err := sweepd.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	opts.Distribute = true
	srv := sweepd.NewServer(store, opts)
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	co := &coordinator{store: store, server: srv, http: ts, client: &sweepd.Client{Base: ts.URL}}
	t.Cleanup(func() { co.stop(t) })
	return co
}

// stop drains and closes the coordinator; safe to call twice.
func (co *coordinator) stop(t *testing.T) {
	t.Helper()
	if co.http == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := co.server.Drain(ctx); err != nil {
		t.Errorf("drain at teardown: %v", err)
	}
	co.http.Close()
	if err := co.store.Close(); err != nil {
		t.Errorf("store close at teardown: %v", err)
	}
	co.http = nil
}

// waitDone polls a job to a terminal state and returns its final status.
func waitDone(t *testing.T, c *sweepd.Client, id string, timeout time.Duration) sweepd.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	st, err := c.Wait(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("waiting for job %s: %v (last state %s)", id, err, st.State)
	}
	return st
}

// pollProgress waits until the job has at least min completed replicates
// while still running, so an interruption lands mid-sweep.
func pollProgress(t *testing.T, c *sweepd.Client, id string, min int) sweepd.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			t.Fatalf("polling job %s: %v", id, err)
		}
		if st.Completed >= min {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s finished (%s) before the interrupt point %d", id, st.State, min)
		}
		select {
		case <-ctx.Done():
			t.Fatalf("job %s never reached %d completed replicates", id, min)
		case <-time.After(5 * time.Millisecond):
		}
	}
}
