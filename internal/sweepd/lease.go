package sweepd

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/scenario"
)

// DefaultLeaseTTL is how long a granted lease lives without a renewal, used
// when ServerOptions.LeaseTTL is zero. Workers renew at TTL/3, so one lost
// heartbeat never kills a lease but a dead or partitioned worker loses its
// slots within one TTL — and a job whose workers are all gone leaves its
// distribution phase one TTL after their last lease traffic.
const DefaultLeaseTTL = 2 * time.Second

// maxLeaseSlots is the most slots one claim grants. Small grants keep
// reassignment cheap when a worker dies; a worker asks for fewer with
// ClaimRequest.MaxSlots.
const maxLeaseSlots = 4

// ClaimRequest is the body of POST /v1/leases/claim: a worker asking for a
// share of a sharded job's replicates.
type ClaimRequest struct {
	// Worker names the claiming worker (for logs and lease attribution).
	Worker string `json:"worker"`
	// MaxSlots caps how many replicate slots this claim may grant; zero
	// (or anything above 4) means the server's maximum of 4.
	MaxSlots int `json:"max_slots,omitempty"`
}

// ClaimResponse grants a lease: the job identity a worker needs to reproduce
// the leased replicates bit for bit, the slot indices it now owns, and the
// TTL its heartbeats must beat.
type ClaimResponse struct {
	LeaseID    string `json:"lease_id"`
	JobID      string `json:"job_id"`
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	// Replicates is the sweep's total size n; leased Slots index into [0,n).
	Replicates int   `json:"replicates"`
	Slots      []int `json:"slots"`
	TTLMS      int64 `json:"ttl_ms"`
}

// RenewResponse answers a heartbeat with the refreshed TTL.
type RenewResponse struct {
	TTLMS int64 `json:"ttl_ms"`
}

// UploadRequest is the body of POST /v1/leases/{id}/results: one computed
// replicate's canonical JSON, or — in Failed, in place of Result — why the
// worker cannot produce it. The (JobID, Replicate) pair — not the lease —
// keys idempotency: a retried or zombie upload of a slot that already has a
// result is acknowledged as a duplicate and changes nothing.
type UploadRequest struct {
	JobID     string          `json:"job_id"`
	Replicate int             `json:"replicate"`
	Result    json.RawMessage `json:"result,omitempty"`
	// Failed reports a replicate that errored or panicked on the worker, or
	// an experiment missing from its registry. The slot is never leased
	// again; the finalize run computes it, so the job fails (or records its
	// keep-going row) exactly as an in-process run would.
	Failed string `json:"failed,omitempty"`
}

// UploadResponse acknowledges an upload. Duplicate marks a slot the
// coordinator had already closed (a result journaled and charged exactly
// once, or a failure already reported); Remaining counts the job's slots
// still open — neither journaled nor failed.
type UploadResponse struct {
	Duplicate bool `json:"duplicate,omitempty"`
	Remaining int  `json:"remaining"`
}

// lease is one granted slot range. A lease whose expiry passes without a
// renewal is reaped: its unfinished slots return to the pool for the next
// claim, and renewals against it answer 410 Gone.
type lease struct {
	id      string
	jobID   string
	slots   []int
	expires time.Time
}

// shardState is the coordinator-side state of one job's distribution phase:
// the open seq-0 sweep journal uploads append to, and per-slot bookkeeping.
type shardState struct {
	job     *Job
	n       int
	journal *scenario.Journal
	// done marks slots that have a journaled result — recovered from a
	// previous run or uploaded during this one. Uploads against done slots
	// are idempotent no-ops.
	done map[int]bool
	// failed marks slots a worker reported it cannot compute. They are
	// closed like done ones — never leased again — but left for the
	// finalize run; a later valid result still lands and clears the mark.
	failed map[int]bool
	// assigned maps a slot to the live lease that owns it.
	assigned map[int]string
	// activity is the phase opening or the last claim grant, renewal,
	// release or upload touching this job; the phase-end rule keys off it.
	activity time.Time
}

// remainingLocked counts open slots: neither journaled nor failed.
func (st *shardState) remainingLocked() int { return st.n - len(st.done) - len(st.failed) }

// A leaseTable is the coordinator's lease plane: which jobs are currently
// sharded, which worker holds which slots, and when each lease dies. All
// methods are safe for concurrent use.
type leaseTable struct {
	ttl time.Duration

	mu     sync.Mutex
	seq    uint64
	order  []string // job IDs in registration order — claim fairness
	jobs   map[string]*shardState
	leases map[string]*lease
}

// newLeaseTable builds the table with a resolved TTL.
func newLeaseTable(ttl time.Duration) *leaseTable {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	return &leaseTable{
		ttl:    ttl,
		jobs:   map[string]*shardState{},
		leases: map[string]*lease{},
	}
}

// register opens a job's distribution phase. pre lists the replicate slots
// already journaled by earlier runs; they are done before any worker
// claims, and they count as the job's resumed replicates here, once.
func (t *leaseTable) register(job *Job, n int, j *scenario.Journal, pre []int, now time.Time) {
	st := &shardState{
		job:      job,
		n:        n,
		journal:  j,
		done:     make(map[int]bool, n),
		failed:   map[int]bool{},
		assigned: map[int]string{},
		activity: now,
	}
	for _, rep := range pre {
		st.done[rep] = true
		job.observe(scenario.ProgressEvent{Rep: rep, Resumed: true})
	}
	t.mu.Lock()
	t.jobs[job.ID] = st
	t.order = append(t.order, job.ID)
	t.mu.Unlock()
}

// unregister closes a job's distribution phase, reaping its leases. Late
// zombie uploads for the job answer 410 Gone from here on.
func (t *leaseTable) unregister(jobID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.jobs, jobID)
	for i, id := range t.order {
		if id == jobID {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
	for id, l := range t.leases { //lint:allow maporder every lease of the job is removed; order is irrelevant
		if l.jobID == jobID {
			delete(t.leases, id)
		}
	}
}

// expireLocked reaps every lease whose TTL has passed, returning its
// unfinished slots to the pool. Callers hold t.mu.
func (t *leaseTable) expireLocked(now time.Time) {
	for id, l := range t.leases { //lint:allow maporder expiry is commutative; each lease is reaped independently
		if now.Before(l.expires) {
			continue
		}
		delete(t.leases, id)
		if st, ok := t.jobs[l.jobID]; ok {
			for _, slot := range l.slots {
				if st.assigned[slot] == id {
					delete(st.assigned, slot)
				}
			}
		}
	}
}

// claim grants the next free slots of the oldest sharded job, or returns
// (nil, false) when no work is available.
func (t *leaseTable) claim(maxSlots int, now time.Time) (*ClaimResponse, bool) {
	if maxSlots <= 0 || maxSlots > maxLeaseSlots {
		maxSlots = maxLeaseSlots
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(now)
	for _, jobID := range t.order {
		st := t.jobs[jobID]
		var free []int
		for slot := 0; slot < st.n && len(free) < maxSlots; slot++ {
			if !st.done[slot] && !st.failed[slot] && st.assigned[slot] == "" {
				free = append(free, slot)
			}
		}
		if len(free) == 0 {
			continue
		}
		t.seq++
		l := &lease{
			id:      fmt.Sprintf("l-%06d", t.seq),
			jobID:   jobID,
			slots:   free,
			expires: now.Add(t.ttl),
		}
		t.leases[l.id] = l
		for _, slot := range free {
			st.assigned[slot] = l.id
		}
		st.activity = now
		return &ClaimResponse{
			LeaseID:    l.id,
			JobID:      jobID,
			Experiment: st.job.Spec.Experiment,
			Quick:      st.job.Spec.Quick,
			Seed:       st.job.Spec.Seed,
			Replicates: st.n,
			Slots:      free,
			TTLMS:      t.ttl.Milliseconds(),
		}, true
	}
	return nil, false
}

// renew extends a live lease by one TTL. A lease that expired (or was never
// granted) reports false: the worker has lost its slots and must re-claim.
func (t *leaseTable) renew(id string, now time.Time) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(now)
	l, ok := t.leases[id]
	if !ok {
		return 0, false
	}
	l.expires = now.Add(t.ttl)
	if st, ok := t.jobs[l.jobID]; ok {
		st.activity = now
	}
	return t.ttl, true
}

// release ends a lease explicitly (graceful worker shutdown or a finished
// slot range), returning its unfinished slots to the pool. Unknown leases
// are fine — release is idempotent.
func (t *leaseTable) release(id string, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.leases[id]
	if !ok {
		return
	}
	delete(t.leases, id)
	if st, ok := t.jobs[l.jobID]; ok {
		for _, slot := range l.slots {
			if st.assigned[slot] == id {
				delete(st.assigned, slot)
			}
		}
		st.activity = now
	}
}

// upload closes one slot of a sharded job, idempotently keyed by (job,
// slot): it journals a worker-computed result, or marks the slot failed.
// The lease ID is deliberately not checked against the slot: a zombie
// worker whose lease expired mid-replicate may still deliver a result, and
// since replicates are deterministic its bytes equal whatever a reassigned
// worker would upload — first write wins, every later one is a duplicate.
// A result counts into the job's progress, as fresh work, exactly once,
// here; a result for a failed slot still lands and clears the failure.
func (t *leaseTable) upload(req UploadRequest, now time.Time) (UploadResponse, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.jobs[req.JobID]
	if !ok {
		return UploadResponse{}, errGone
	}
	rep, failed := req.Replicate, req.Failed != ""
	switch {
	case rep < 0 || rep >= st.n:
		return UploadResponse{}, fmt.Errorf("replicate %d out of range [0,%d)", rep, st.n)
	case failed && len(req.Result) != 0:
		return UploadResponse{}, fmt.Errorf("replicate %d: an upload carries a result or a failure, not both", rep)
	case !failed && (len(req.Result) == 0 || string(req.Result) == "null" || !json.Valid(req.Result)):
		return UploadResponse{}, fmt.Errorf("replicate %d needs a non-null JSON result", rep)
	}
	if st.done[rep] || (failed && st.failed[rep]) {
		return UploadResponse{Duplicate: true, Remaining: st.remainingLocked()}, nil
	}
	if failed {
		st.failed[rep] = true
	} else {
		if err := st.journal.Record(rep, req.Result, 0); err != nil {
			return UploadResponse{}, fmt.Errorf("journaling replicate %d: %w", rep, err)
		}
		st.done[rep] = true
		delete(st.failed, rep)
		st.job.observe(scenario.ProgressEvent{Rep: rep})
	}
	delete(st.assigned, rep)
	st.activity = now
	return UploadResponse{Remaining: st.remainingLocked()}, nil
}

// poll reports whether a sharded job's distribution phase is over: every
// slot is closed, or the job has had no lease traffic for one TTL. A live
// lease always had its grant or last renewal — both traffic — within one
// TTL, so an idle TTL also means no live lease: the job's workers are gone.
// open counts the slots still neither journaled nor failed.
func (t *leaseTable) poll(jobID string, now time.Time) (open int, over bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.jobs[jobID]
	if !ok {
		return 0, true
	}
	open = st.remainingLocked()
	return open, open == 0 || now.Sub(st.activity) >= t.ttl
}

// counts reports the table's size for the readiness probe: live leases and
// jobs currently in their distribution phase.
func (t *leaseTable) counts(now time.Time) (activeLeases, shardedJobs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(now)
	return len(t.leases), len(t.jobs)
}

// errGone marks requests against a lease or distribution phase that no
// longer exists; handlers map it to 410 Gone.
var errGone = fmt.Errorf("sweepd: lease or distribution phase is gone")
