package sweepd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"context"

	"repro/internal/scenario"
)

// DefaultQueueDepth bounds the external submission queue when
// ServerOptions.QueueDepth is zero.
const DefaultQueueDepth = 32

// ServerOptions tunes a Server. The zero value is serviceable: one sweep
// worker, DefaultQueueDepth queue slots, unlimited quotas.
type ServerOptions struct {
	// QueueDepth bounds how many external submissions may wait queued at
	// once; a submission past the bound gets a loud 429 with Retry-After —
	// never a block, never a silent drop. Server-initiated repair re-runs
	// (artifact corruption) bypass the bound: refusing repair work would
	// wedge the corrupted job forever. Zero means DefaultQueueDepth.
	QueueDepth int
	// Workers is how many jobs execute concurrently. Zero means one.
	Workers int
	// Parallel is the per-sweep worker pool handed to scenario.Config;
	// zero means GOMAXPROCS. Parallelism never changes result bytes.
	Parallel int
	// Quota is the per-caller admission limit; the zero value is unlimited.
	Quota Quota
	// Distribute opens the worker lease plane (POST /v1/leases/...; without
	// it those routes answer 404): jobs whose experiment is Shardable get a
	// distribution phase where external worker processes claim replicate
	// slot leases, compute them, and upload results into the job's sweep
	// journal. Off by default — a coordinator with no workers pointed at it
	// would only pay one LeaseTTL per shardable job.
	Distribute bool
	// LeaseTTL is how long a slot lease survives without a heartbeat before
	// its slots are reassigned, and how long a sharded job's distribution
	// phase waits without lease traffic before the coordinator computes the
	// open slots in-process; zero means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// A Server runs jobs from a Store through the experiment registry and
// serves the HTTP/JSON API. Create with NewServer, start workers with
// Start, stop with Drain.
type Server struct {
	store  *Store
	opts   ServerOptions
	leases *leaseTable

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*Job
	draining bool

	runCtx context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	mux    *http.ServeMux
}

// NewServer builds a server over an open store. Jobs whose last durable
// state is queued or running are re-enqueued immediately (bypassing the
// admission bound — they were already admitted); running ones resume from
// their sweep checkpoint journals once a worker picks them up.
func NewServer(store *Store, opts ServerOptions) *Server {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	s := &Server{store: store, opts: opts, leases: newLeaseTable(opts.LeaseTTL)}
	s.cond = sync.NewCond(&s.mu)
	s.runCtx, s.cancel = context.WithCancel(context.Background())
	s.queue = append(s.queue, store.Pending()...)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/quota", s.handleQuota)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	if opts.Distribute {
		s.mux.HandleFunc("POST /v1/leases/claim", s.handleClaim)
		s.mux.HandleFunc("POST /v1/leases/{id}/renew", s.handleRenew)
		s.mux.HandleFunc("POST /v1/leases/{id}/results", s.handleUpload)
		s.mux.HandleFunc("POST /v1/leases/{id}/release", s.handleRelease)
	}
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Start launches the worker pool. Call once.
func (s *Server) Start() {
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Drain gracefully stops the server: new submissions are refused with 503,
// running sweeps are cancelled (their completed replicates are already
// checkpointed in per-sweep journals, and their durable job state stays
// "running", so a restart resumes them), and Drain returns once every
// worker has exited — or with an error when ctx expires first. Queued jobs
// need no persisting: their submission records are already durable.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}
	s.cancel()
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.store.Sync()
	case <-ctx.Done():
		return fmt.Errorf("sweepd: drain deadline expired with workers still running: %w", ctx.Err())
	}
}

// logf logs through the configured sink.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// callerOf identifies the submitting caller: the X-API-Key header, or
// "anonymous".
func callerOf(r *http.Request) string {
	if key := r.Header.Get("X-API-Key"); key != "" {
		return key
	}
	return "anonymous"
}

// apiError is the JSON body of every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

// writeErr writes one JSON error response.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /v1/jobs: validate, admit (quota, cache, dedup,
// queue bound — in that order), journal, acknowledge. Nothing is journaled
// unless it was admitted, and nothing is acknowledged unless it is durable.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	caller := callerOf(r)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "server is draining; resubmit after restart")
		return
	}
	if reason, over := s.opts.Quota.Exceeded(s.store.UsageFor(caller)); over {
		s.mu.Unlock()
		writeErr(w, http.StatusTooManyRequests, "caller %s over quota: %s", caller, reason)
		return
	}
	hash := spec.Hash()
	if spec.Cacheable() {
		if entry, ok := s.store.Cached(hash); ok {
			s.mu.Unlock()
			if job, found := s.store.Lookup(entry.JobID); found {
				st := job.Status()
				st.Cached = true
				writeJSON(w, http.StatusOK, st)
				return
			}
		}
	}
	if live, ok := s.store.Live(hash); ok {
		s.mu.Unlock()
		st := live.Status()
		st.Deduped = true
		writeJSON(w, http.StatusOK, st)
		return
	}
	if len(s.queue) >= s.opts.QueueDepth {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests,
			"queue full (%d jobs waiting); retry later", s.opts.QueueDepth)
		return
	}
	job, err := s.store.Submit(caller, spec)
	if err != nil {
		s.mu.Unlock()
		writeErr(w, http.StatusInternalServerError, "journaling submission: %v", err)
		return
	}
	s.queue = append(s.queue, job)
	// Snapshot before unlocking: once the lock drops, a sweep worker may
	// start the job, and the acknowledgement reports it queued.
	st := job.Status()
	s.cond.Signal()
	s.mu.Unlock()

	s.logf("job %s: %s submitted by %s (spec %s)", job.ID, spec.Experiment, caller, job.SpecHash)
	writeJSON(w, http.StatusAccepted, st)
}

// handleJob is GET /v1/jobs/{id}: one job's status snapshot.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.store.Lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// handleResult is GET /v1/jobs/{id}/result: the artifact bytes of a
// finished job. Every read re-verifies the artifact against its journaled
// SHA-256; a mismatch degrades gracefully — the job is re-queued for
// recompute (its sweep journal still holds every replicate, so the rebuild
// is cheap and charge-free) and the caller gets a 202, never a 500 and
// never wrong bytes.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.store.Lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	switch st := job.State(); st {
	case StateDone, StateTruncated:
		file, sum := job.artifactRef()
		if file == "" {
			writeErr(w, http.StatusConflict, "job %s finished %s without an artifact", job.ID, st)
			return
		}
		data, err := s.store.ReadArtifact(file, sum)
		if errors.Is(err, ErrArtifactCorrupt) {
			s.logf("job %s: %v; re-queueing for recompute", job.ID, err)
			if rerr := s.recompute(job, err.Error()); rerr != nil {
				writeErr(w, http.StatusServiceUnavailable, "artifact corrupt and recompute failed to queue: %v", rerr)
				return
			}
			st := job.Status()
			writeJSON(w, http.StatusAccepted, st)
			return
		}
		if err != nil {
			writeErr(w, http.StatusServiceUnavailable, "reading artifact: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Job-State", string(st))
		w.Header().Set("X-Artifact-Sum", sum)
		w.Write(data) //nolint:errcheck // response already committed
	case StateFailed:
		writeJSON(w, http.StatusConflict, job.Status())
	default:
		writeJSON(w, http.StatusAccepted, job.Status())
	}
}

// recompute journals a corrupt artifact's done → queued transition and
// re-enqueues the job, bypassing the admission bound (the work was already
// admitted and paid for; refusing the repair would wedge the job).
func (s *Server) recompute(job *Job, reason string) error {
	if err := s.store.Requeue(job, reason); err != nil {
		return err
	}
	s.mu.Lock()
	s.queue = append(s.queue, job)
	s.cond.Signal()
	s.mu.Unlock()
	return nil
}

// handleQuota is GET /v1/quota: the calling key's charged usage against the
// server's per-caller limits.
func (s *Server) handleQuota(w http.ResponseWriter, r *http.Request) {
	caller := callerOf(r)
	writeJSON(w, http.StatusOK, QuotaStatus{
		Caller:          caller,
		Used:            s.store.UsageFor(caller),
		LimitReplicates: s.opts.Quota.Replicates,
		LimitWallClock:  int64(s.opts.Quota.WallClock),
	})
}

// healthz is the GET /v1/healthz body — a readiness probe, not just a
// liveness ping: queue pressure, drain state, the lease plane's size, and
// whether the job journal still accepts writes. The JSON shape is golden-
// tested; extend it, never rename it.
type healthz struct {
	// Status is "ok" when the server accepts work, "draining" during
	// shutdown. Ready means Status == "ok" and Journal == "ok".
	Status   string `json:"status"`
	Draining bool   `json:"draining,omitempty"`
	// Queued is the external submission queue's depth (bounded by
	// QueueDepth).
	Queued int `json:"queued"`
	// ActiveLeases counts live worker slot leases; ShardedJobs counts jobs
	// currently in their distribution phase.
	ActiveLeases int `json:"active_leases"`
	ShardedJobs  int `json:"sharded_jobs"`
	// Journal is "ok" when the job journal syncs, else the sync error — a
	// wedged disk or lost lock turns the probe not-ready instead of letting
	// jobs fail one by one.
	Journal string `json:"journal"`
}

// handleHealthz is GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	h := healthz{Status: "ok", Draining: s.draining, Queued: len(s.queue)}
	s.mu.Unlock()
	if h.Draining {
		h.Status = "draining"
	}
	h.ActiveLeases, h.ShardedJobs = s.leases.counts(time.Now())
	if err := s.store.Sync(); err != nil {
		h.Journal = err.Error()
	} else {
		h.Journal = "ok"
	}
	writeJSON(w, http.StatusOK, h)
}

// handleClaim is POST /v1/leases/claim: grant a worker its next slot range.
// 204 means no shardable work right now — poll again after Retry-After.
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding claim: %v", err)
		return
	}
	if req.Worker == "" {
		req.Worker = callerOf(r)
	}
	grant, ok := s.leases.claim(req.MaxSlots, time.Now())
	if !ok {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.logf("lease %s: job %s slots %v -> worker %s", grant.LeaseID, grant.JobID, grant.Slots, req.Worker)
	writeJSON(w, http.StatusOK, grant)
}

// handleRenew is POST /v1/leases/{id}/renew: a worker heartbeat. 410 means
// the lease already expired and its slots were reassigned — the worker must
// abandon them and claim afresh.
func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ttl, ok := s.leases.renew(id, time.Now())
	if !ok {
		writeErr(w, http.StatusGone, "lease %s expired or never existed; re-claim", id)
		return
	}
	writeJSON(w, http.StatusOK, RenewResponse{TTLMS: ttl.Milliseconds()})
}

// handleUpload is POST /v1/leases/{id}/results: one computed replicate, or
// a worker's report that it cannot compute one. Idempotency is keyed by
// (job, replicate), deliberately not by lease: a zombie worker whose lease
// was reassigned mid-replicate still delivers valid bytes (replicates are
// deterministic), so its late upload is either the first — journaled and
// charged once — or a duplicate no-op. 410 means the job's distribution
// phase is over; the result is no longer wanted.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	var req UploadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding upload: %v", err)
		return
	}
	ack, err := s.leases.upload(req, time.Now())
	switch {
	case errors.Is(err, errGone):
		writeErr(w, http.StatusGone, "job %s is not distributing", req.JobID)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Failed != "" && !ack.Duplicate {
		s.logf("job %s: replicate %d failed on a worker (%s); the finalize run computes it",
			req.JobID, req.Replicate, req.Failed)
	}
	writeJSON(w, http.StatusOK, ack)
}

// handleRelease is POST /v1/leases/{id}/release: a worker giving its lease
// back explicitly (graceful shutdown, or all slots uploaded). Idempotent.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	s.leases.release(r.PathValue("id"), time.Now())
	writeJSON(w, http.StatusOK, struct{}{})
}

// worker executes queued jobs until drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job := s.dequeue()
		if job == nil {
			return
		}
		s.runJob(job)
	}
}

// dequeue blocks for the next queued job, returning nil at drain.
func (s *Server) dequeue() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && s.runCtx.Err() == nil {
		s.cond.Wait()
	}
	if s.runCtx.Err() != nil {
		return nil
	}
	job := s.queue[0]
	s.queue = s.queue[1:]
	return job
}

// runJob drives one job through the registry: queued → running, sweep with
// per-spec checkpoint journal (always opened in resume mode, so a job
// interrupted by a crash or drain picks up exactly where its journal left
// off), then one terminal transition carrying the completion charge. A job
// interrupted by drain journals nothing — its durable state stays
// "running" and the next server run resumes it.
func (s *Server) runJob(job *Job) {
	exp, ok := scenario.Find(job.Spec.Experiment)
	if !ok { // validated at submission; racing registry changes are impossible
		s.finish(job, StateFailed, fmt.Sprintf("experiment %q disappeared from the registry", job.Spec.Experiment), nil, 0)
		return
	}
	if job.State() != StateRunning {
		if err := s.store.MarkRunning(job); err != nil {
			s.logf("job %s: journaling running transition: %v", job.ID, err)
			return
		}
	}
	sweepDir, err := s.store.SweepDir(job.SpecHash)
	if err != nil {
		s.finish(job, StateFailed, err.Error(), nil, 0)
		return
	}

	job.resetProgress()
	start := time.Now()

	// Distribution phase: shardable jobs first offer their replicate slots
	// to external workers; whatever the workers upload lands in the sweep
	// journal, and the finalizing run below merges it exactly like resumed
	// work. Whatever never arrived — no workers, killed workers, a partition,
	// a replicate a worker reported failed — the finalizing run computes
	// in-process: distribution is an accelerator, never a correctness
	// dependency.
	distributed := s.distribute(job, exp, sweepDir)
	if s.runCtx.Err() != nil {
		s.logf("job %s: distribution interrupted by drain; will resume", job.ID)
		return
	}

	onProgress := job.observe
	if distributed {
		// Every slot the finalizing run resumes was counted when the phase
		// opened (journaled by an earlier run) or when it was uploaded.
		onProgress = func(ev scenario.ProgressEvent) {
			if !ev.Resumed {
				job.observe(ev)
			}
		}
	}
	cfg := scenario.Config{
		Quick:      job.Spec.Quick,
		Seed:       job.Spec.Seed,
		Parallel:   s.opts.Parallel,
		Timeout:    job.Spec.Timeout(),
		Budget:     scenario.Budget{Replicates: job.Spec.BudgetReplicates},
		Sweep:      job.Spec.Experiment,
		Ctx:        s.runCtx,
		OnProgress: onProgress,
	}.WithJournal(sweepDir, true)
	job.setTotal(exp.EstimatedReps(cfg))

	res, runErr := exp.Run(cfg)
	wall := time.Since(start)

	if s.runCtx.Err() != nil {
		// Drain interrupted the sweep. Completed replicates are in the sweep
		// journal; the durable job state stays "running" for restart resume.
		s.logf("job %s: interrupted by drain after %d replicates; will resume", job.ID, func() int { f, r := job.counts(); return f + r }())
		return
	}

	var artifact []byte
	if res != nil {
		raw, merr := MarshalArtifact(res)
		if merr != nil {
			s.finish(job, StateFailed, fmt.Sprintf("encoding result: %v", merr), nil, wall)
			return
		}
		artifact = raw
	}

	var trunc *scenario.TruncatedError
	switch {
	case runErr == nil:
		s.finish(job, StateDone, "", artifact, wall)
	case errors.As(runErr, &trunc):
		s.finish(job, StateTruncated, runErr.Error(), artifact, wall)
	default:
		s.finish(job, StateFailed, runErr.Error(), nil, wall)
	}
}

// shardPollInterval paces the coordinator's distribution-phase wait loop.
const shardPollInterval = 10 * time.Millisecond

// distribute runs a job's distribution phase and reports whether it ran. It
// returns when every slot has a journaled result or a reported failure,
// when the job has had no lease traffic for one lease TTL, or at drain.
//
// Only jobs that reduce to exactly one replicate sweep with no truncation
// knobs distribute: a replicate budget or timeout changes which slots run
// (or whether they finish) based on coordinator-local state that a worker
// cannot see, so those jobs stay in-process to keep their bytes identical.
func (s *Server) distribute(job *Job, exp scenario.Experiment, sweepDir string) bool {
	if !s.opts.Distribute || !exp.Shardable ||
		job.Spec.BudgetReplicates != 0 || job.Spec.TimeoutMS != 0 {
		return false
	}
	cfg := scenario.Config{
		Quick: job.Spec.Quick,
		Seed:  job.Spec.Seed,
		Sweep: job.Spec.Experiment,
	}.WithJournal(sweepDir, true)
	n := exp.EstimatedReps(cfg)
	if n <= 0 {
		return false
	}
	j, err := scenario.OpenFirstSweepJournal(cfg, n)
	if err != nil {
		s.logf("job %s: opening shard journal: %v; running in-process", job.ID, err)
		return false
	}
	pre, _ := j.Completed()
	job.setTotal(n)
	s.leases.register(job, n, j, pre, time.Now())
	s.logf("job %s: distributing %d replicates (%d already journaled)", job.ID, n, len(pre))
	// The journal handle must close before the finalizing exp.Run reopens
	// the file (the append lock is exclusive), and unregister must come
	// first so no upload races the close.
	defer func() {
		s.leases.unregister(job.ID)
		if cerr := j.Close(); cerr != nil {
			s.logf("job %s: closing shard journal: %v", job.ID, cerr)
		}
	}()

	ticker := time.NewTicker(shardPollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.runCtx.Done():
			return true
		case <-ticker.C:
		}
		if open, over := s.leases.poll(job.ID, time.Now()); over {
			if open > 0 {
				s.logf("job %s: no lease traffic for %v with %d slots open; computing in-process",
					job.ID, s.leases.ttl, open)
			}
			return true
		}
	}
}

// finish publishes a job's terminal transition: artifact first (atomic
// write, fingerprinted), then the journaled state record that carries the
// completion charge — fresh replicates only, so crash-resumed work is never
// billed twice.
func (s *Server) finish(job *Job, state JobState, errText string, artifact []byte, wall time.Duration) {
	fresh, resumed := job.counts()
	var file, sum string
	if artifact != nil {
		var err error
		file, sum, err = s.store.WriteArtifact(job, artifact)
		if err != nil {
			state, errText = StateFailed, fmt.Sprintf("%s (artifact write failed: %v)", errText, err)
			file, sum = "", ""
		}
	}
	var err error
	switch state {
	case StateDone:
		err = s.store.MarkDone(job, file, sum, fresh, resumed, wall)
	case StateTruncated:
		err = s.store.MarkTruncated(job, errText, file, sum, fresh, resumed, wall)
	default:
		err = s.store.MarkFailed(job, errText, fresh, resumed, wall)
	}
	if err != nil {
		s.logf("job %s: journaling %s transition: %v", job.ID, state, err)
		return
	}
	s.logf("job %s: %s (%d fresh, %d resumed, %v)", job.ID, state, fresh, resumed, wall.Round(time.Millisecond))
}

// RetryAfter parses a Retry-After header (seconds form) for clients.
func RetryAfter(h http.Header) (time.Duration, bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}
