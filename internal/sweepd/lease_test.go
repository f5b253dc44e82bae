package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// leaseHTTP is a minimal raw-HTTP worker for lease-plane unit tests: the
// real worker lives in internal/workerd; these helpers exercise the wire
// protocol directly.
type leaseHTTP struct {
	t    *testing.T
	base string
}

func (lh *leaseHTTP) post(path string, body, out any) (int, http.Header) {
	lh.t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		lh.t.Fatal(err)
	}
	resp, err := http.Post(lh.base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		lh.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		lh.t.Fatalf("POST %s: reading body: %v", path, err)
	}
	if out != nil && resp.StatusCode < 300 && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			lh.t.Fatalf("POST %s: decoding %q: %v", path, data, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// claim polls until the coordinator grants a lease (a job must first reach
// its distribution phase) or the deadline passes.
func (lh *leaseHTTP) claim(worker string, maxSlots int) *ClaimResponse {
	lh.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var grant ClaimResponse
		code, _ := lh.post("/v1/leases/claim", ClaimRequest{Worker: worker, MaxSlots: maxSlots}, &grant)
		switch code {
		case http.StatusOK:
			return &grant
		case http.StatusNoContent:
			time.Sleep(5 * time.Millisecond)
		default:
			lh.t.Fatalf("claim: unexpected status %d", code)
		}
	}
	lh.t.Fatal("claim: no lease granted within deadline")
	return nil
}

// upload delivers one replicate result, returning the ack and status code.
func (lh *leaseHTTP) upload(leaseID, jobID string, rep int, result any) (UploadResponse, int) {
	lh.t.Helper()
	raw, err := json.Marshal(result)
	if err != nil {
		lh.t.Fatal(err)
	}
	var ack UploadResponse
	code, _ := lh.post("/v1/leases/"+leaseID+"/results",
		UploadRequest{JobID: jobID, Replicate: rep, Result: raw}, &ack)
	return ack, code
}

// renewEvery heartbeats a lease from a goroutine until the returned stop
// function is called; stop fails the test if a renewal was refused.
func (lh *leaseHTTP) renewEvery(id string, every time.Duration) (stop func()) {
	done := make(chan struct{})
	refused := make(chan int, 1)
	go func() {
		defer close(refused)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			resp, err := http.Post(lh.base+"/v1/leases/"+id+"/renew", "application/json", strings.NewReader("{}"))
			if err != nil {
				refused <- 0
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				refused <- resp.StatusCode
				return
			}
		}
	}()
	return func() {
		close(done)
		if code, ok := <-refused; ok {
			lh.t.Fatalf("renewing lease %s: status %d", id, code)
		}
	}
}

// repVal is what one sweepd-test-* replicate computes — the worker-side
// half of the determinism contract.
func repVal(seed uint64, rep int) uint64 { return scenario.ReplicateSeed(seed, rep) % 1_000_003 }

// distOpts is the lease-plane test server configuration: distribution on
// with the given TTL — which is also how long a sharded job waits without
// lease traffic before the coordinator computes its open slots itself.
func distOpts(ttl time.Duration) ServerOptions {
	return ServerOptions{Distribute: true, LeaseTTL: ttl}
}

// TestLeaseLifecycle drives the happy path over the wire: claim every slot,
// upload every result, watch the job finish with the exact artifact an
// in-process run produces and exactly one full quota charge.
func TestLeaseLifecycle(t *testing.T) {
	svc := startService(t, t.TempDir(), distOpts(2*time.Second))
	svc.client.APIKey = "alice"
	spec := JobSpec{Experiment: expFast, Seed: 11}
	golden := goldenArtifact(t, spec)

	ctx := context.Background()
	st, err := svc.client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	lh := &leaseHTTP{t: t, base: svc.http.URL}
	grant := lh.claim("w1", 0)
	if grant.JobID != st.ID || grant.Replicates != fastReps || len(grant.Slots) != fastReps {
		t.Fatalf("grant %+v, want all %d slots of job %s", grant, fastReps, st.ID)
	}
	if grant.Experiment != expFast || grant.Seed != 11 {
		t.Fatalf("grant does not carry the job identity: %+v", grant)
	}
	for _, slot := range grant.Slots {
		ack, code := lh.upload(grant.LeaseID, grant.JobID, slot, repVal(spec.Seed, slot))
		if code != http.StatusOK || ack.Duplicate {
			t.Fatalf("upload slot %d: code %d ack %+v", slot, code, ack)
		}
	}
	lh.post("/v1/leases/"+grant.LeaseID+"/release", struct{}{}, nil)

	final := waitState(t, svc.client, st.ID, StateDone)
	if final.Completed != fastReps {
		t.Fatalf("completed %d, want %d", final.Completed, fastReps)
	}
	data, _, err := svc.client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, golden) {
		t.Fatalf("distributed artifact differs from in-process golden:\n got %s\nwant %s", data, golden)
	}
	q, err := svc.client.Quota(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if q.Used.Replicates != fastReps {
		t.Fatalf("caller charged %d replicates, want exactly %d", q.Used.Replicates, fastReps)
	}
}

// TestZombieUploadChargesOnce is the reassignment double-completion case: a
// worker's lease expires mid-slot, the slot is reassigned and completed by a
// second worker, and then the first worker — a zombie that never heard it
// lost the lease — delivers the same slot late. The caller must be charged
// for the slot exactly once and the artifact must be untouched.
func TestZombieUploadChargesOnce(t *testing.T) {
	svc := startService(t, t.TempDir(), distOpts(100*time.Millisecond))
	svc.client.APIKey = "bob"
	spec := JobSpec{Experiment: expFast, Seed: 23}
	golden := goldenArtifact(t, spec)

	ctx := context.Background()
	st, err := svc.client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	lh := &leaseHTTP{t: t, base: svc.http.URL}

	// Worker A claims slots {0,1}, uploads 0, then goes silent: its lease
	// expires and slot 1 returns to the pool. Worker B holds slots {2,3}
	// and keeps renewing, so the job stays in its distribution phase — an
	// idle job would fall back in-process after one TTL.
	a := lh.claim("zombie", 2)
	if len(a.Slots) != 2 || a.Slots[0] != 0 || a.Slots[1] != 1 {
		t.Fatalf("first claim granted %v, want [0 1]", a.Slots)
	}
	b := lh.claim("healthy", 2)
	if len(b.Slots) != 2 || b.Slots[0] != 2 || b.Slots[1] != 3 {
		t.Fatalf("second claim granted %v, want [2 3]", b.Slots)
	}
	stopRenew := lh.renewEvery(b.LeaseID, 20*time.Millisecond)
	if ack, code := lh.upload(a.LeaseID, a.JobID, 0, repVal(spec.Seed, 0)); code != http.StatusOK || ack.Duplicate {
		t.Fatalf("upload slot 0: code %d ack %+v", code, ack)
	}
	time.Sleep(250 * time.Millisecond) // > TTL: the lease is dead

	if code, _ := lh.post("/v1/leases/"+a.LeaseID+"/renew", struct{}{}, nil); code != http.StatusGone {
		t.Fatalf("renewing an expired lease: status %d, want %d", code, http.StatusGone)
	}

	// Worker B claims the freed slot 1 and completes it.
	b1 := lh.claim("healthy", 2)
	if len(b1.Slots) != 1 || b1.Slots[0] != 1 {
		t.Fatalf("reassignment claim granted %v, want [1]", b1.Slots)
	}
	if ack, code := lh.upload(b1.LeaseID, b1.JobID, 1, repVal(spec.Seed, 1)); code != http.StatusOK || ack.Duplicate {
		t.Fatalf("upload slot 1 via B: code %d ack %+v", code, ack)
	}

	// The zombie finishes slot 1 late. Same bytes (replicates are
	// deterministic), already journaled: acknowledged as a duplicate, no
	// second journal record, no second charge.
	ack, code := lh.upload(a.LeaseID, a.JobID, 1, repVal(spec.Seed, 1))
	if code != http.StatusOK || !ack.Duplicate {
		t.Fatalf("zombie upload of slot 1: code %d ack %+v, want a duplicate ack", code, ack)
	}

	// Finish the job: B uploads the slots of its renewed lease.
	if ack, code := lh.upload(b.LeaseID, b.JobID, 2, repVal(spec.Seed, 2)); code != http.StatusOK || ack.Duplicate {
		t.Fatalf("upload slot 2: code %d ack %+v", code, ack)
	}
	stopRenew()
	ack, code = lh.upload(b.LeaseID, b.JobID, 3, repVal(spec.Seed, 3))
	if code != http.StatusOK || ack.Duplicate || ack.Remaining != 0 {
		t.Fatalf("final upload: code %d ack %+v", code, ack)
	}

	waitState(t, svc.client, st.ID, StateDone)
	data, _, err := svc.client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, golden) {
		t.Fatalf("artifact differs after double completion:\n got %s\nwant %s", data, golden)
	}
	q, err := svc.client.Quota(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if q.Used.Replicates != fastReps {
		t.Fatalf("caller charged %d replicates after a doubly-completed slot, want exactly %d",
			q.Used.Replicates, fastReps)
	}

	// The distribution phase is over: a very late zombie upload gets 410.
	if _, code := lh.upload(a.LeaseID, a.JobID, 1, repVal(spec.Seed, 1)); code != http.StatusGone {
		t.Fatalf("upload after finalization: status %d, want %d", code, http.StatusGone)
	}
}

// TestDistributeFallsBackInProcess: distribution enabled but no worker ever
// connects — after one lease TTL with no lease traffic the coordinator
// computes every slot itself, bytes and charges unchanged.
func TestDistributeFallsBackInProcess(t *testing.T) {
	svc := startService(t, t.TempDir(), distOpts(50*time.Millisecond))
	svc.client.APIKey = "carol"
	spec := JobSpec{Experiment: expFast, Seed: 31}
	golden := goldenArtifact(t, spec)

	ctx := context.Background()
	st, err := svc.client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc.client, st.ID, StateDone)
	data, _, err := svc.client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, golden) {
		t.Fatalf("fallback artifact differs from golden:\n got %s\nwant %s", data, golden)
	}
	q, err := svc.client.Quota(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if q.Used.Replicates != fastReps {
		t.Fatalf("caller charged %d replicates, want %d", q.Used.Replicates, fastReps)
	}
}

// TestPartialWorkerThenFallback: a worker delivers some slots and vanishes;
// the coordinator finishes the rest in-process. One full charge, golden
// bytes — the mixed execution is invisible in the result.
func TestPartialWorkerThenFallback(t *testing.T) {
	svc := startService(t, t.TempDir(), distOpts(100*time.Millisecond))
	svc.client.APIKey = "dave"
	spec := JobSpec{Experiment: expFast, Seed: 47}
	golden := goldenArtifact(t, spec)

	ctx := context.Background()
	st, err := svc.client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	lh := &leaseHTTP{t: t, base: svc.http.URL}
	grant := lh.claim("flaky", 2)
	if ack, code := lh.upload(grant.LeaseID, grant.JobID, grant.Slots[0], repVal(spec.Seed, grant.Slots[0])); code != http.StatusOK || ack.Duplicate {
		t.Fatalf("upload: code %d ack %+v", code, ack)
	}
	// The worker dies here: no renewal, no more uploads. Lease expiry frees
	// its second slot; one TTL without lease traffic hands everything left
	// to the coordinator.
	waitState(t, svc.client, st.ID, StateDone)
	data, _, err := svc.client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, golden) {
		t.Fatalf("mixed-execution artifact differs from golden:\n got %s\nwant %s", data, golden)
	}
	q, err := svc.client.Quota(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if q.Used.Replicates != fastReps {
		t.Fatalf("caller charged %d replicates, want %d", q.Used.Replicates, fastReps)
	}
}

// TestHealthzGolden pins the readiness probe's JSON shape byte for byte —
// operators parse this; renames are breaking changes.
func TestHealthzGolden(t *testing.T) {
	svc := startService(t, t.TempDir(), ServerOptions{})
	resp, err := http.Get(svc.http.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "status": "ok",
  "queued": 0,
  "active_leases": 0,
  "sharded_jobs": 0,
  "journal": "ok"
}
`
	if string(body) != want {
		t.Fatalf("healthz shape drifted:\n got %q\nwant %q", body, want)
	}
}

// TestHealthzDuringDistribution: the probe reports the lease plane while a
// job is sharded and a lease is live.
func TestHealthzDuringDistribution(t *testing.T) {
	svc := startService(t, t.TempDir(), distOpts(5*time.Second))
	if _, err := svc.client.Submit(context.Background(), JobSpec{Experiment: expFast, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	lh := &leaseHTTP{t: t, base: svc.http.URL}
	grant := lh.claim("probe", 2)

	resp, err := http.Get(svc.http.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status       string `json:"status"`
		ActiveLeases int    `json:"active_leases"`
		ShardedJobs  int    `json:"sharded_jobs"`
		Journal      string `json:"journal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.ActiveLeases != 1 || h.ShardedJobs != 1 || h.Journal != "ok" {
		t.Fatalf("probe %+v, want ok/1 lease/1 sharded job/journal ok", h)
	}

	// Unblock teardown: finish the job.
	for slot := 0; slot < fastReps; slot++ {
		id := grant.LeaseID
		if slot >= 2 {
			g2 := lh.claim("probe", 4)
			id = g2.LeaseID
			for _, s2 := range g2.Slots {
				lh.upload(id, grant.JobID, s2, repVal(3, s2))
			}
			break
		}
		lh.upload(id, grant.JobID, slot, repVal(3, slot))
	}
	waitState(t, svc.client, grant.JobID, StateDone)
}

// TestLeaseValidation: malformed uploads are refused loudly, and claims
// against a non-distributing server 404.
func TestLeaseValidation(t *testing.T) {
	svc := startService(t, t.TempDir(), distOpts(time.Second))
	lh := &leaseHTTP{t: t, base: svc.http.URL}
	if _, err := svc.client.Submit(context.Background(), JobSpec{Experiment: expFast, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	grant := lh.claim("v", 4)
	if _, code := lh.upload(grant.LeaseID, grant.JobID, 99, uint64(1)); code != http.StatusBadRequest {
		t.Fatalf("out-of-range upload: status %d, want 400", code)
	}
	if _, code := lh.upload(grant.LeaseID, "j-999999", 0, uint64(1)); code != http.StatusGone {
		t.Fatalf("upload against unknown job: status %d, want 410", code)
	}
	var ack UploadResponse
	code, _ := lh.post("/v1/leases/"+grant.LeaseID+"/results",
		UploadRequest{JobID: grant.JobID, Replicate: 0}, &ack)
	if code != http.StatusBadRequest {
		t.Fatalf("empty result upload: status %d, want 400", code)
	}
	// Finish the job so teardown drains cleanly.
	for _, slot := range grant.Slots {
		lh.upload(grant.LeaseID, grant.JobID, slot, repVal(5, slot))
	}
	waitState(t, svc.client, grant.JobID, StateDone)

	plain := startService(t, t.TempDir(), ServerOptions{})
	var buf bytes.Buffer
	fmt.Fprint(&buf, `{"worker":"x"}`)
	resp, err := http.Post(plain.http.URL+"/v1/leases/claim", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("claim on non-distributing server: status %d, want 404", resp.StatusCode)
	}
}

// TestRestartMidDistribution: a worker uploads 2 of 4 slots, then the server
// drains mid-phase and restarts on the same store. The restarted job counts
// the journaled slots as resumed when its phase opens, computes the other
// two itself, and charges only those two — with golden bytes.
func TestRestartMidDistribution(t *testing.T) {
	dir := t.TempDir()
	svc := startService(t, dir, distOpts(30*time.Second))
	svc.client.APIKey = "erin"
	spec := JobSpec{Experiment: expFast, Seed: 53}
	golden := goldenArtifact(t, spec)

	ctx := context.Background()
	st, err := svc.client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	lh := &leaseHTTP{t: t, base: svc.http.URL}
	grant := lh.claim("w", 2)
	for _, slot := range grant.Slots {
		if ack, code := lh.upload(grant.LeaseID, grant.JobID, slot, repVal(spec.Seed, slot)); code != http.StatusOK || ack.Duplicate {
			t.Fatalf("upload slot %d: code %d ack %+v", slot, code, ack)
		}
	}
	svc.stop(t)

	svc2 := startService(t, dir, distOpts(50*time.Millisecond))
	svc2.client.APIKey = "erin"
	final := waitState(t, svc2.client, st.ID, StateDone)
	if final.Resumed != 2 || final.Completed != fastReps {
		t.Fatalf("restarted job: %d completed, %d resumed; want %d and 2", final.Completed, final.Resumed, fastReps)
	}
	data, _, err := svc2.client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, golden) {
		t.Fatalf("artifact after a mid-phase restart differs from golden:\n got %s\nwant %s", data, golden)
	}
	q, err := svc2.client.Quota(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if q.Used.Replicates != 2 {
		t.Fatalf("caller charged %d replicates, want the 2 computed after the restart", q.Used.Replicates)
	}
}

// TestLeaseRoutesNeedDistribute: without Distribute the lease plane does not
// exist — all four routes answer 404, even to well-formed bodies.
func TestLeaseRoutesNeedDistribute(t *testing.T) {
	svc := startService(t, t.TempDir(), ServerOptions{})
	lh := &leaseHTTP{t: t, base: svc.http.URL}
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/leases/claim", ClaimRequest{Worker: "w"}},
		{"/v1/leases/l-000001/renew", struct{}{}},
		{"/v1/leases/l-000001/results", UploadRequest{JobID: "j-000001", Replicate: 0, Result: json.RawMessage("1")}},
		{"/v1/leases/l-000001/release", struct{}{}},
	} {
		if code, _ := lh.post(c.path, c.body, nil); code != http.StatusNotFound {
			t.Errorf("POST %s on a non-distributing server: status %d, want 404", c.path, code)
		}
	}
}

// TestFailedReportClosesSlot: a worker's failure report closes its slot — it
// is never leased again and leaves Remaining — so the phase ends without
// waiting out the TTL and the finalize run computes the slot in-process:
// golden bytes, each replicate charged once. An upload carrying both a
// result and a failure is refused.
func TestFailedReportClosesSlot(t *testing.T) {
	svc := startService(t, t.TempDir(), distOpts(30*time.Second))
	svc.client.APIKey = "frank"
	spec := JobSpec{Experiment: expFast, Seed: 61}
	golden := goldenArtifact(t, spec)

	ctx := context.Background()
	st, err := svc.client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	lh := &leaseHTTP{t: t, base: svc.http.URL}
	grant := lh.claim("w", 1)
	results := "/v1/leases/" + grant.LeaseID + "/results"
	both := UploadRequest{JobID: st.ID, Replicate: 0, Result: json.RawMessage("1"), Failed: "and a failure"}
	if code, _ := lh.post(results, both, nil); code != http.StatusBadRequest {
		t.Fatalf("upload with both a result and a failure: status %d, want 400", code)
	}
	report := UploadRequest{JobID: st.ID, Replicate: 0, Failed: "experiment missing from this worker's registry"}
	var ack UploadResponse
	if code, _ := lh.post(results, report, &ack); code != http.StatusOK || ack.Duplicate || ack.Remaining != fastReps-1 {
		t.Fatalf("failure report: status %d ack %+v, want a fresh ack with %d remaining", code, ack, fastReps-1)
	}
	ack = UploadResponse{}
	if code, _ := lh.post(results, report, &ack); code != http.StatusOK || !ack.Duplicate {
		t.Fatalf("repeated failure report: status %d ack %+v, want a duplicate ack", code, ack)
	}

	rest := lh.claim("w", 0)
	if len(rest.Slots) != fastReps-1 || rest.Slots[0] != 1 {
		t.Fatalf("claim after the failure report granted %v, want [1 2 3]", rest.Slots)
	}
	for _, slot := range rest.Slots {
		if ack, code := lh.upload(rest.LeaseID, rest.JobID, slot, repVal(spec.Seed, slot)); code != http.StatusOK || ack.Duplicate {
			t.Fatalf("upload slot %d: code %d ack %+v", slot, code, ack)
		}
	}

	final := waitState(t, svc.client, st.ID, StateDone)
	if final.Completed != fastReps || final.Resumed != 0 {
		t.Fatalf("final progress %+v, want %d fresh replicates", final, fastReps)
	}
	data, _, err := svc.client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, golden) {
		t.Fatalf("artifact with a failed-then-computed slot differs from golden:\n got %s\nwant %s", data, golden)
	}
	q, err := svc.client.Quota(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if q.Used.Replicates != fastReps {
		t.Fatalf("caller charged %d replicates, want %d", q.Used.Replicates, fastReps)
	}
}
