package workerd

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/netchaos"
	"repro/internal/scenario"
	"repro/internal/sweepd"
)

// The distributed chaos harness: a real in-process coordinator, real worker
// subprocesses (this test binary re-exec'd into TestWorkerdHelper), and real
// faults — SIGKILL mid-replicate, a TCP partition via netchaos.Proxy, and
// SIGTERM graceful stops. The invariant under all of it is the same one the
// single-process chaos harness proves for crashes: final artifact bytes are
// identical to an uninterrupted run, and the submitting caller is charged
// for exactly one computation of each replicate.

// TestWorkerdHelper is the worker subprocess body. It only runs re-exec'd
// with ANVILWORKERD_HELPER=1; in the normal suite it skips. It mirrors
// cmd/anvilworkerd's run(): a Worker under signal.NotifyContext, so SIGTERM
// exercises the same graceful path the production binary takes.
func TestWorkerdHelper(t *testing.T) {
	if os.Getenv("ANVILWORKERD_HELPER") != "1" {
		t.Skip("helper body; only runs as a re-exec'd worker subprocess")
	}
	seed, err := strconv.ParseUint(os.Getenv("AW_SEED"), 10, 64)
	if err != nil {
		t.Fatalf("AW_SEED: %v", err)
	}
	maxSlots, err := strconv.Atoi(os.Getenv("AW_MAXSLOTS"))
	if err != nil {
		t.Fatalf("AW_MAXSLOTS: %v", err)
	}
	poll, err := time.ParseDuration(os.Getenv("AW_POLL"))
	if err != nil {
		t.Fatalf("AW_POLL: %v", err)
	}
	grace, err := time.ParseDuration(os.Getenv("AW_GRACE"))
	if err != nil {
		t.Fatalf("AW_GRACE: %v", err)
	}
	w := New(Options{
		Coordinator: os.Getenv("AW_COORD"),
		ID:          os.Getenv("AW_ID"),
		MaxSlots:    maxSlots,
		Poll:        poll,
		Grace:       grace,
		Seed:        seed,
		Logf:        t.Logf,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker run: %v", err)
	}
}

// lockedBuf is a race-safe capture of a subprocess's combined output.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// workerProc is one worker subprocess under test control.
type workerProc struct {
	t    *testing.T
	id   string
	cmd  *exec.Cmd
	out  *lockedBuf
	err  error // cmd.Wait result; valid once done is closed
	done chan struct{}
}

// startWorker re-execs this test binary as a worker daemon pointed at coord.
func startWorker(t *testing.T, coord, id string, maxSlots int, seed uint64, poll, grace time.Duration) *workerProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWorkerdHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"ANVILWORKERD_HELPER=1",
		"AW_COORD="+coord,
		"AW_ID="+id,
		"AW_MAXSLOTS="+strconv.Itoa(maxSlots),
		"AW_SEED="+strconv.FormatUint(seed, 10),
		"AW_POLL="+poll.String(),
		"AW_GRACE="+grace.String(),
	)
	out := &lockedBuf{}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting worker %s: %v", id, err)
	}
	wp := &workerProc{t: t, id: id, cmd: cmd, out: out, done: make(chan struct{})}
	go func() {
		wp.err = cmd.Wait()
		close(wp.done)
	}()
	t.Cleanup(wp.reap)
	return wp
}

// sigkill murders the worker outright — no cleanup, no lease release.
func (wp *workerProc) sigkill() {
	wp.t.Helper()
	if err := wp.cmd.Process.Kill(); err != nil {
		wp.t.Fatalf("SIGKILL %s: %v", wp.id, err)
	}
	<-wp.done
}

// sigterm asks for a graceful stop and asserts the worker exits cleanly
// within the deadline.
func (wp *workerProc) sigterm(timeout time.Duration) {
	wp.t.Helper()
	if err := wp.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		wp.t.Fatalf("SIGTERM %s: %v", wp.id, err)
	}
	select {
	case <-wp.done:
	case <-time.After(timeout):
		wp.t.Fatalf("worker %s still running %v after SIGTERM\n%s", wp.id, timeout, wp.out.String())
	}
	if wp.err != nil {
		wp.t.Fatalf("worker %s exited non-zero after SIGTERM: %v\n%s", wp.id, wp.err, wp.out.String())
	}
}

// waitPolling blocks until the worker has started its claim loop, so a job
// submitted next is claimed well inside one lease TTL rather than falling
// back to the coordinator.
func (wp *workerProc) waitPolling(within time.Duration) {
	wp.t.Helper()
	deadline := time.Now().Add(within)
	for !strings.Contains(wp.out.String(), "for leases") {
		if time.Now().After(deadline) {
			wp.t.Fatalf("worker %s not polling within %v\n%s", wp.id, within, wp.out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// reap kills any worker a test left running.
func (wp *workerProc) reap() {
	select {
	case <-wp.done:
		return
	default:
	}
	_ = wp.cmd.Process.Kill()
	<-wp.done
}

// claimNow polls the lease plane until a grant lands, bounded by within — a
// bound far under the lease TTL proves the previous holder released
// explicitly rather than timing out.
func claimNow(t *testing.T, c *sweepd.Client, worker string, within time.Duration) *sweepd.ClaimResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), within)
	defer cancel()
	for {
		grant, err := c.ClaimLease(ctx, worker, 0)
		if err != nil {
			t.Fatalf("claim as %s: %v", worker, err)
		}
		if grant != nil {
			return grant
		}
		select {
		case <-ctx.Done():
			t.Fatalf("no lease granted to %s within %v", worker, within)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// uploadVal computes slot's deterministic value in-process and uploads it —
// the test standing in for a worker.
func uploadVal(t *testing.T, c *sweepd.Client, grant *sweepd.ClaimResponse, slot int, seed uint64) sweepd.UploadResponse {
	t.Helper()
	raw := json.RawMessage(strconv.FormatUint(wval(seed, slot), 10))
	ack, err := c.UploadResult(context.Background(), grant.LeaseID,
		sweepd.UploadRequest{JobID: grant.JobID, Replicate: slot, Result: raw})
	if err != nil {
		t.Fatalf("uploading slot %d: %v", slot, err)
	}
	return ack
}

// TestWorkerFleetChaos is the headline scenario: three real worker
// subprocesses share one job; one is SIGKILLed mid-replicate and one is
// network-partitioned by a chaos proxy mid-sweep. Their leases expire, the
// surviving worker absorbs the reassigned slots, and the finished artifact
// is byte-identical to an uninterrupted single-process run — with the
// caller charged for exactly one computation of each replicate.
func TestWorkerFleetChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness")
	}
	co := startCoordinator(t, sweepd.ServerOptions{LeaseTTL: 400 * time.Millisecond})
	spec := sweepd.JobSpec{Experiment: wexpChaos, Seed: 0x5EED}
	want := golden(t, spec)
	caller := &sweepd.Client{Base: co.http.URL, APIKey: "fleet"}
	ctx := context.Background()

	proxy, err := netchaos.NewProxy(strings.TrimPrefix(co.http.URL, "http://"), netchaos.ProxyOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() }) //nolint:errcheck // teardown

	healthy := startWorker(t, co.http.URL, "w-healthy", 2, 1, 25*time.Millisecond, 10*time.Second)
	victim := startWorker(t, co.http.URL, "w-victim", 2, 2, 25*time.Millisecond, 10*time.Second)
	cutoff := startWorker(t, "http://"+proxy.Addr(), "w-cutoff", 2, 3, 25*time.Millisecond, 10*time.Second)
	for _, wp := range []*workerProc{healthy, victim, cutoff} {
		wp.waitPolling(30 * time.Second)
	}

	st, err := caller.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Let the fleet get properly into the sweep, then strike: the victim
	// dies instantly (held lease never released), and the cutoff worker's
	// link goes dark (heartbeats stop reaching the coordinator).
	pollProgress(t, caller, st.ID, 2)
	victim.sigkill()
	proxy.Partition()
	t.Logf("victim SIGKILLed and cutoff partitioned mid-sweep")

	fin := waitDone(t, caller, st.ID, 60*time.Second)
	if fin.State != sweepd.StateDone || fin.Error != "" {
		t.Fatalf("job finished %s (error %q), want done", fin.State, fin.Error)
	}
	if fin.Completed != wchaosReps {
		t.Fatalf("job completed %d replicates, want %d", fin.Completed, wchaosReps)
	}
	fctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	got, err := caller.FetchResult(fctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("artifact after kill+partition differs from the uninterrupted run:\ngot  %s\nwant %s", got, want)
	}
	q, err := caller.Quota(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if q.Used.Replicates != wchaosReps {
		t.Fatalf("caller charged %d replicates, want exactly %d (each slot computed once)",
			q.Used.Replicates, wchaosReps)
	}

	// The survivors still stop cleanly: the healthy worker drains its idle
	// claim loop, and the partitioned one abandons its dead link.
	healthy.sigterm(15 * time.Second)
	cutoff.sigterm(15 * time.Second)
}

// TestWorkerSIGTERMGraceful: SIGTERM mid-sweep finishes the in-flight
// replicate, abandons the rest, releases the lease explicitly — proven by a
// fresh claim succeeding far inside the 30s TTL — and exits zero within the
// grace bound.
func TestWorkerSIGTERMGraceful(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness")
	}
	co := startCoordinator(t, sweepd.ServerOptions{
		LeaseTTL: 30 * time.Second, // only an explicit release frees slots fast
	})
	spec := sweepd.JobSpec{Experiment: wexpSlow, Seed: 9}
	want := golden(t, spec)
	caller := &sweepd.Client{Base: co.http.URL, APIKey: "term"}
	ctx := context.Background()

	st, err := caller.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	w := startWorker(t, co.http.URL, "w-term", wslowReps, 7, 25*time.Millisecond, 10*time.Second)

	pollProgress(t, caller, st.ID, 1)
	w.sigterm(15 * time.Second)

	now, err := caller.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if now.Completed < 1 || now.Completed >= wslowReps {
		t.Fatalf("worker had completed %d of %d slots at exit; SIGTERM was meant to land mid-sweep",
			now.Completed, wslowReps)
	}
	if out := w.out.String(); !strings.Contains(out, "soft stop; abandoning") {
		t.Fatalf("worker took no graceful soft-stop path; output:\n%s", out)
	}

	// 2s << the 30s TTL: this claim only succeeds because the dying worker
	// released its lease instead of letting it expire.
	grant := claimNow(t, co.client, "prober", 2*time.Second)
	if grant.JobID != st.ID || len(grant.Slots) != wslowReps-now.Completed {
		t.Fatalf("reclaimed %v of job %s; want the %d slots the worker abandoned",
			grant.Slots, grant.JobID, wslowReps-now.Completed)
	}
	for _, slot := range grant.Slots {
		if ack := uploadVal(t, co.client, grant, slot, spec.Seed); ack.Duplicate {
			t.Fatalf("slot %d acked as duplicate; the worker was not supposed to have computed it", slot)
		}
	}

	fin := waitDone(t, caller, st.ID, 30*time.Second)
	if fin.State != sweepd.StateDone || fin.Completed != wslowReps {
		t.Fatalf("job finished %s with %d/%d replicates", fin.State, fin.Completed, wslowReps)
	}
	fctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	got, err := caller.FetchResult(fctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("artifact after graceful handoff differs:\ngot  %s\nwant %s", got, want)
	}
	q, err := caller.Quota(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if q.Used.Replicates != wslowReps {
		t.Fatalf("caller charged %d replicates, want exactly %d", q.Used.Replicates, wslowReps)
	}
}

// TestSoftStopFinishesInFlightReplicate pins the soft-stop contract
// deterministically, in-process: a replicate parked on a gate is in flight
// when the soft context cancels; the worker must finish and upload exactly
// that replicate and never start the next slot.
func TestSoftStopFinishesInFlightReplicate(t *testing.T) {
	co := startCoordinator(t, sweepd.ServerOptions{LeaseTTL: 30 * time.Second})
	spec := sweepd.JobSpec{Experiment: wexpGate, Seed: 0x42}
	want := golden(t, spec) // before arming the gate: golden runs ungated
	gateCh = make(chan struct{})
	startedCh = make(chan struct{})
	t.Cleanup(func() { gateCh, startedCh = nil, nil })

	caller := &sweepd.Client{Base: co.http.URL, APIKey: "soft"}
	ctx := context.Background()
	st, err := caller.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	w := New(Options{
		Coordinator: co.http.URL,
		ID:          "w-soft",
		MaxSlots:    1, // one slot per lease: slot 1 needs a claim the stopped worker must not make
		Poll:        10 * time.Millisecond,
		Grace:       10 * time.Second,
		Seed:        3,
		Logf:        t.Logf,
	})
	soft, cancel := context.WithCancel(ctx)
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(soft) }()

	<-startedCh   // replicate 0 is now in flight, parked on the gate
	cancel()      // soft stop lands mid-replicate
	close(gateCh) // release the replicate; the worker must still upload it
	if err := <-runErr; err != nil {
		t.Fatalf("worker run: %v", err)
	}

	now, err := caller.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if now.Completed != 1 {
		t.Fatalf("completed %d replicates after soft stop, want exactly the in-flight one", now.Completed)
	}

	// The worker released slot 0's lease and never claimed slot 1; claim it
	// and finish the job by hand.
	grant := claimNow(t, co.client, "prober", 2*time.Second)
	if len(grant.Slots) != 1 || grant.Slots[0] != 1 {
		t.Fatalf("reclaimed slots %v, want exactly the unstarted slot 1", grant.Slots)
	}
	uploadVal(t, co.client, grant, 1, spec.Seed)

	fin := waitDone(t, caller, st.ID, 30*time.Second)
	if fin.State != sweepd.StateDone || fin.Completed != wgateReps {
		t.Fatalf("job finished %s with %d/%d replicates", fin.State, fin.Completed, wgateReps)
	}
	fctx, fcancel := context.WithTimeout(ctx, 30*time.Second)
	defer fcancel()
	got, err := caller.FetchResult(fctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("artifact after soft stop differs:\ngot  %s\nwant %s", got, want)
	}
}

// TestFailingReplicateEndsJob: a replicate that always fails is reported by
// the worker instead of abandoned and re-claimed, so the job ends — failed,
// with the error text and fresh-replicate charge an in-process run gives it
// — instead of bouncing the slot between claims forever.
func TestFailingReplicateEndsJob(t *testing.T) {
	co := startCoordinator(t, sweepd.ServerOptions{LeaseTTL: 30 * time.Second})
	spec := sweepd.JobSpec{Experiment: wexpFail, Seed: 0xFA11}
	exp, _ := scenario.Find(wexpFail)
	fresh := 0
	_, inProcess := exp.Run(scenario.Config{
		Seed:       spec.Seed,
		Parallel:   1,
		OnProgress: func(scenario.ProgressEvent) { fresh++ },
	})
	const wantErr = "scenario: replicate 1: replicate 1 always fails"
	if inProcess == nil || inProcess.Error() != wantErr || fresh != wfailReps-1 {
		t.Fatalf("in-process run: error %v after %d replicates, want %q after %d", inProcess, fresh, wantErr, wfailReps-1)
	}

	w := New(Options{Coordinator: co.http.URL, ID: "w-fail", Poll: 10 * time.Millisecond, Seed: 5, Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-runErr; err != nil {
			t.Errorf("worker run: %v", err)
		}
	}()

	caller := &sweepd.Client{Base: co.http.URL, APIKey: "failing"}
	st, err := caller.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, caller, st.ID, 10*time.Second)
	if fin.State != sweepd.StateFailed || fin.Error != wantErr {
		t.Fatalf("job finished %s with error %q, want failed with %q", fin.State, fin.Error, wantErr)
	}
	q, err := caller.Quota(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if q.Used.Replicates != fresh {
		t.Fatalf("caller charged %d replicates, want the in-process charge %d", q.Used.Replicates, fresh)
	}
}

// TestKeepGoingFailureRecordsRow: the same reported failure in a keep-going
// sweep ends the job done, with the failed replicate's row computed by the
// coordinator — the artifact an in-process run produces, byte for byte.
func TestKeepGoingFailureRecordsRow(t *testing.T) {
	co := startCoordinator(t, sweepd.ServerOptions{LeaseTTL: 30 * time.Second})
	spec := sweepd.JobSpec{Experiment: wexpKeepGoing, Seed: 0xFA11}
	want := golden(t, spec)

	w := New(Options{Coordinator: co.http.URL, ID: "w-keep", Poll: 10 * time.Millisecond, Seed: 6, Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-runErr; err != nil {
			t.Errorf("worker run: %v", err)
		}
	}()

	caller := &sweepd.Client{Base: co.http.URL, APIKey: "keep"}
	st, err := caller.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, caller, st.ID, 10*time.Second)
	if fin.State != sweepd.StateDone {
		t.Fatalf("job finished %s (error %q), want done", fin.State, fin.Error)
	}
	fctx, fcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer fcancel()
	got, err := caller.FetchResult(fctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("keep-going artifact differs from the in-process run:\ngot  %s\nwant %s", got, want)
	}
}

// TestWorkerRequiresCoordinator: a worker without a coordinator URL fails
// loudly instead of spinning.
func TestWorkerRequiresCoordinator(t *testing.T) {
	w := New(Options{})
	if err := w.Run(context.Background()); err == nil {
		t.Fatal("Run without a coordinator URL must error")
	}
}
