// Package workerd implements the stateless replicate worker of the
// distributed sweep plane. A worker owns no journal and no artifacts: it
// claims slot leases from an anvilserved coordinator (POST
// /v1/leases/claim), recomputes the leased replicates through the same
// experiment registry the coordinator would use — replicate seeds are pure
// functions of (base seed, slot), so the bytes are identical wherever they
// are computed — and uploads each result as it completes. Heartbeats renew
// the lease at a third of its TTL; a worker that dies or is partitioned
// simply stops renewing, the coordinator reassigns its slots, and any
// result the zombie still delivers is deduplicated server-side. A slot the
// worker cannot compute — its replicate errors or panics, or the experiment
// is missing from the worker's registry — is reported failed instead of
// retried: the coordinator never leases it again and computes it itself, so
// the job ends exactly as an in-process run would.
//
// Shutdown is two-phase. The soft context (SIGTERM in cmd/anvilworkerd)
// stops new claims and new slots but lets the in-flight replicate finish
// and upload — killing deterministic work halfway buys nothing, the next
// worker would recompute the same bytes. A bounded grace period later the
// hard context cancels whatever is still running; either way the worker
// releases its lease explicitly on the way out, so the coordinator learns
// immediately instead of waiting out the TTL.
//
//lint:zone host
package workerd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweepd"
)

// Defaults for zero Options fields.
const (
	// DefaultPoll is the idle claim-polling interval.
	DefaultPoll = 200 * time.Millisecond
	// DefaultGrace bounds how long a soft-stopped worker may keep finishing
	// its in-flight replicate before the hard context kills it.
	DefaultGrace = 20 * time.Second
	// releaseTimeout bounds the explicit lease release on the way out.
	releaseTimeout = 2 * time.Second
)

// Options configures a Worker.
type Options struct {
	// Coordinator is the anvilserved base URL (required).
	Coordinator string
	// APIKey identifies the worker to the coordinator.
	APIKey string
	// ID names the worker in leases and logs; empty derives one from the
	// PID.
	ID string
	// MaxSlots caps how many slots one claim asks for; zero accepts the
	// coordinator's maximum of 4.
	MaxSlots int
	// Poll is the claim interval while no work is available; zero means
	// DefaultPoll.
	Poll time.Duration
	// Grace bounds in-flight work after a soft stop; zero means
	// DefaultGrace.
	Grace time.Duration
	// Seed roots the transport-retry jitter stream, so a fleet of workers
	// backs off out of phase.
	Seed uint64
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
	// HTTPClient overrides the transport — chaos tests inject fault
	// transports here.
	HTTPClient *http.Client
}

// A Worker executes leased replicate slots until its context ends.
type Worker struct {
	opts   Options
	client *sweepd.Client
}

// New builds a worker. The coordinator URL is validated at claim time, not
// here — a worker may legitimately start before its coordinator.
func New(opts Options) *Worker {
	if opts.ID == "" {
		opts.ID = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if opts.Poll <= 0 {
		opts.Poll = DefaultPoll
	}
	if opts.Grace <= 0 {
		opts.Grace = DefaultGrace
	}
	return &Worker{
		opts: opts,
		client: &sweepd.Client{
			Base:       opts.Coordinator,
			APIKey:     opts.APIKey,
			HTTPClient: opts.HTTPClient,
			// Transport retries absorb request-level faults (drops, resets,
			// lost responses); anything that outlives them falls back to the
			// lease machinery — expiry and reassignment.
			MaxRetries: 4,
			RetryBase:  50 * time.Millisecond,
			RetrySeed:  opts.Seed,
		},
	}
}

// logf logs through the configured sink.
func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// Run claims and executes leases until ctx (the soft-stop signal) ends,
// then finishes the in-flight replicate — bounded by the grace period —
// releases any held lease, and returns. The returned error is nil for every
// orderly stop, including grace expiry.
func (w *Worker) Run(ctx context.Context) error {
	if w.opts.Coordinator == "" {
		return fmt.Errorf("workerd: Options.Coordinator is required")
	}
	// hard cancels in-flight work Grace after the soft stop; watchdogStop
	// tears the watchdog down if Run returns first.
	hard, hardCancel := context.WithCancel(context.Background())
	defer hardCancel()
	watchdog, watchdogStop := context.WithCancel(context.Background())
	defer watchdogStop()
	go func() {
		select {
		case <-watchdog.Done():
			return
		case <-ctx.Done():
		}
		t := time.NewTimer(w.opts.Grace)
		defer t.Stop()
		select {
		case <-watchdog.Done():
		case <-t.C:
			w.logf("%s: grace period expired; cancelling in-flight work", w.opts.ID)
			hardCancel()
		}
	}()

	w.logf("%s: polling %s for leases", w.opts.ID, w.opts.Coordinator)
	for {
		if ctx.Err() != nil {
			return nil
		}
		grant, err := w.client.ClaimLease(ctx, w.opts.ID, w.opts.MaxSlots)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			w.logf("%s: claim: %v", w.opts.ID, err)
			if !sleepCtx(ctx, w.opts.Poll) {
				return nil
			}
			continue
		}
		if grant == nil {
			if !sleepCtx(ctx, w.opts.Poll) {
				return nil
			}
			continue
		}
		w.serve(ctx, hard, grant)
	}
}

// serve executes one granted lease: heartbeat in the background, slots one
// at a time in the foreground (so a soft stop waits for at most one
// replicate), explicit release on every exit path.
func (w *Worker) serve(soft, hard context.Context, grant *sweepd.ClaimResponse) {
	w.logf("%s: lease %s: job %s slots %v (ttl %dms)",
		w.opts.ID, grant.LeaseID, grant.JobID, grant.Slots, grant.TTLMS)

	// leaseCtx dies with the hard context, or when the heartbeat learns the
	// lease is gone — either way the slot loop stops.
	leaseCtx, lost := context.WithCancel(hard)
	defer lost()
	hbDone := make(chan struct{})
	go w.heartbeat(leaseCtx, grant.LeaseID, time.Duration(grant.TTLMS)*time.Millisecond, lost, hbDone)

	completed := 0
	for _, slot := range grant.Slots {
		if soft.Err() != nil {
			// Soft stop between slots: whatever was in flight has finished
			// and uploaded; the rest is abandoned for reassignment.
			w.logf("%s: lease %s: soft stop; abandoning %d unstarted slots",
				w.opts.ID, grant.LeaseID, len(grant.Slots)-completed)
			break
		}
		if leaseCtx.Err() != nil {
			break
		}
		if err := w.runSlot(leaseCtx, grant, slot); err != nil {
			w.logf("%s: lease %s slot %d: %v; abandoning lease", w.opts.ID, grant.LeaseID, slot, err)
			break
		}
		completed++
	}

	lost()
	<-hbDone
	// Explicit release: even when the worker is shutting down (soft and
	// hard contexts dead), tell the coordinator now rather than making it
	// wait out the TTL. Independent short deadline; best effort.
	rctx, cancel := context.WithTimeout(context.Background(), releaseTimeout)
	defer cancel()
	if err := w.client.ReleaseLease(rctx, grant.LeaseID); err != nil {
		w.logf("%s: lease %s: release: %v", w.opts.ID, grant.LeaseID, err)
	}
	w.logf("%s: lease %s: released after %d/%d slots", w.opts.ID, grant.LeaseID, completed, len(grant.Slots))
}

// heartbeat renews the lease at a third of its TTL until ctx ends. Learning
// the lease is gone (410) cancels the slot loop through lost; transient
// renewal failures are logged and ridden out — the next beat may succeed,
// and if not, expiry and reassignment handle it.
func (w *Worker) heartbeat(ctx context.Context, id string, ttl time.Duration, lost context.CancelFunc, done chan<- struct{}) {
	defer close(done)
	interval := ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if _, err := w.client.RenewLease(ctx, id); err != nil {
			if sweepd.IsGone(err) {
				w.logf("%s: lease %s: gone (expired and reassigned); abandoning", w.opts.ID, id)
				lost()
				return
			}
			if ctx.Err() != nil {
				return
			}
			w.logf("%s: lease %s: heartbeat: %v", w.opts.ID, id, err)
		}
	}
}

// runSlot recomputes one leased replicate and uploads its canonical bytes.
// The experiment runs with Slots restricted to exactly this index, so the
// registry Run executes one replicate and the OnResult hook fires once. A
// slot the worker cannot compute is reported failed, which closes it as an
// upload does; only a lost upload or a stop returns an error, abandoning
// the lease to expiry and reassignment.
func (w *Worker) runSlot(ctx context.Context, grant *sweepd.ClaimResponse, slot int) error {
	exp, ok := scenario.Find(grant.Experiment)
	if !ok {
		return w.reportFailed(ctx, grant, slot, fmt.Errorf("experiment %q is not in this worker's registry", grant.Experiment))
	}
	uploaded := false
	var uploadErr error
	cfg := scenario.Config{
		Quick:    grant.Quick,
		Seed:     grant.Seed,
		Ctx:      ctx,
		Slots:    []int{slot},
		Parallel: 1,
		OnResult: func(rep int, raw json.RawMessage) error {
			ack, err := w.client.UploadResult(ctx, grant.LeaseID, sweepd.UploadRequest{
				JobID:     grant.JobID,
				Replicate: rep,
				Result:    raw,
			})
			if err != nil {
				uploadErr = fmt.Errorf("uploading replicate %d: %w", rep, err)
				return uploadErr
			}
			if ack.Duplicate {
				w.logf("%s: lease %s: replicate %d was already delivered (reassigned lease?)",
					w.opts.ID, grant.LeaseID, rep)
			}
			uploaded = true
			return nil
		},
	}
	_, err := exp.Run(cfg)
	switch {
	case err == nil && uploaded:
		return nil
	case uploadErr != nil:
		return uploadErr
	case ctx.Err() != nil:
		return ctx.Err()
	case err == nil:
		err = fmt.Errorf("replicate %d produced no result (failed inside a keep-going sweep, or out of range for %q)", slot, grant.Experiment)
	}
	return w.reportFailed(ctx, grant, slot, err)
}

// reportFailed tells the coordinator this worker cannot produce a slot's
// result, so the slot is never leased again — rather than bouncing between
// claims — and the coordinator computes it. Only a lost report is an error.
func (w *Worker) reportFailed(ctx context.Context, grant *sweepd.ClaimResponse, slot int, cause error) error {
	w.logf("%s: lease %s slot %d: %v; reporting it failed", w.opts.ID, grant.LeaseID, slot, cause)
	_, err := w.client.UploadResult(ctx, grant.LeaseID, sweepd.UploadRequest{
		JobID:     grant.JobID,
		Replicate: slot,
		Failed:    cause.Error(),
	})
	if err != nil {
		return fmt.Errorf("reporting replicate %d failed: %w", slot, err)
	}
	return nil
}

// sleepCtx waits d, returning false if ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
