package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweepd"
	"repro/internal/workerd"
)

// Job kinds of the service workloads.
const (
	kindFresh   = "fresh"   // a spec the store has never seen, computed in the server
	kindCached  = "cached"  // a resubmission of a finished spec
	kindSharded = "sharded" // a fresh shardable spec, computed through worker leases
)

// serviceMix is the job sequence of one cycle of a service workload's
// closed loop. Each cycle is what `cmd/tables -quick -seed S -only
// <experiments> -submit URL` sends, at a new seed S per cycle: one job per
// experiment, in registry order, each submitted only once the previous
// one's artifact is in hand. With resubmit, the cycle then sends the same
// command again, which the store answers from its cache.
type serviceMix struct {
	experiments []string
	resubmit    bool
	// rssCycles is how many cycles the timed pass runs before max_rss_mb is
	// read. The server keeps every job it has seen, so memory grows with the
	// jobs done; reading it after a fixed count keeps host speed out of it.
	// A pass that completes fewer cycles reads it at its end.
	rssCycles int
}

var serviceMixes = map[string]serviceMix{
	// service: the two cheapest quick-suite experiments (milliseconds of
	// simulation each) and their resubmission — submission fsync, sweep
	// journal, artifact write and cache reads. Neither is shardable, so the
	// server computes them.
	"service": {experiments: []string{"figure1", "section22"}, resubmit: true, rssCycles: 200},
	// lease: the shardable fault-matrix experiment, whose replicates the
	// worker computes through leases — claim, compute, upload, finalize —
	// and its resubmission.
	"lease": {experiments: []string{"fault-matrix"}, resubmit: true, rssCycles: 10},
}

const (
	// clientPoll is the closed-loop client's job-status polling period. It
	// bounds how much of a job's latency is waiting for the next poll.
	clientPoll = time.Millisecond
	// workerPoll is the worker's idle claim-polling period.
	workerPoll = 10 * time.Millisecond
	// stopTimeout bounds each step of a service shutdown.
	stopTimeout = 30 * time.Second
)

// jobOp is one job of the closed loop.
type jobOp struct {
	Kind string         `json:"kind"`
	Spec sweepd.JobSpec `json:"spec"`
}

// jobGen generates a workload's job sequence, one cycle at a time. The
// sequence is a pure function of the seed.
type jobGen struct {
	mix   serviceMix
	seed  uint64
	cycle int
}

func (g *jobGen) next() []jobOp {
	seed := scenario.ReplicateSeed(g.seed^0x73656564, g.cycle)
	g.cycle++
	var ops []jobOp
	for _, name := range g.mix.experiments {
		kind := kindFresh
		if e, _ := scenario.Find(name); e.Shardable {
			kind = kindSharded
		}
		ops = append(ops, jobOp{Kind: kind, Spec: sweepd.JobSpec{Experiment: name, Quick: true, Seed: seed}})
	}
	if g.mix.resubmit {
		for _, op := range ops[:len(g.mix.experiments)] {
			ops = append(ops, jobOp{Kind: kindCached, Spec: op.Spec})
		}
	}
	return ops
}

// warmupJob is the set-up's job: a cheap fresh one at a fixed seed, which
// takes the submission, journal and artifact paths once. It is the same at
// every workload seed, so set-up time does not depend on the seed.
var warmupJob = jobOp{Kind: kindFresh, Spec: sweepd.JobSpec{Experiment: "section22", Quick: true, Seed: 0x7761726d}}

// service is one in-process sweep service: a store in a fresh data
// directory, a Server with the lease plane on, its HTTP listener on
// loopback, one workerd.Worker and the closed-loop client. Every request of
// the client and the worker goes through one timingTransport.
type service struct {
	dir        string
	store      *sweepd.Store
	srv        *sweepd.Server
	hs         *http.Server
	serveDone  chan error
	base       *http.Transport
	tt         *timingTransport
	client     *sweepd.Client
	url        string
	stopWorker context.CancelFunc
	workerDone chan error
}

func startService(workdir string, seed uint64, rec *Recorder) (*service, error) {
	root := filepath.Join(workdir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "sweepd-")
	if err != nil {
		return nil, err
	}
	store, err := sweepd.OpenStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{dir: dir, store: store, url: "http://" + ln.Addr().String()}
	s.srv = sweepd.NewServer(store, sweepd.ServerOptions{Distribute: true, Workers: 1, Parallel: 1})
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.serveDone = make(chan error, 1)
	go func() { s.serveDone <- s.hs.Serve(ln) }()
	s.srv.Start()

	s.base = http.DefaultTransport.(*http.Transport).Clone()
	s.tt = &timingTransport{base: s.base, rec: rec}
	s.client = &sweepd.Client{Base: s.url, APIKey: "perfbench-client", HTTPClient: &http.Client{Transport: s.tt}}
	w := workerd.New(workerd.Options{
		Coordinator: s.url,
		APIKey:      "perfbench-worker",
		ID:          "perfbench-worker",
		Poll:        workerPoll,
		Seed:        seed,
		HTTPClient:  &http.Client{Transport: s.tt},
	})
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorker = cancel
	s.workerDone = make(chan error, 1)
	go func() { s.workerDone <- w.Run(ctx) }()
	return s, nil
}

// stop shuts the service down as a checked operation: a soft stop of the
// worker, which releases any lease it holds; a check that no lease is left;
// Server.Drain; the HTTP server's shutdown; Store.Close; and removal of the
// data directory. It returns every error met on the way.
func (s *service) stop() []error {
	var errs []error
	s.stopWorker()
	select {
	case err := <-s.workerDone:
		if err != nil {
			errs = append(errs, fmt.Errorf("worker: %w", err))
		}
	case <-time.After(stopTimeout):
		errs = append(errs, errors.New("worker did not stop"))
	}
	if n, err := s.activeLeases(); err != nil {
		errs = append(errs, err)
	} else if n != 0 {
		errs = append(errs, fmt.Errorf("%d leases left after the worker stopped", n))
	}
	ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		errs = append(errs, err)
	}
	if err := s.hs.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("http shutdown: %w", err))
	}
	if err := <-s.serveDone; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, fmt.Errorf("http serve: %w", err))
	}
	if err := s.store.Close(); err != nil {
		errs = append(errs, fmt.Errorf("store close: %w", err))
	}
	s.base.CloseIdleConnections()
	if err := os.RemoveAll(s.dir); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// activeLeases reads the live lease count off the readiness probe.
func (s *service) activeLeases() (int, error) {
	resp, err := s.client.HTTPClient.Get(s.url + "/v1/healthz")
	if err != nil {
		return 0, fmt.Errorf("healthz: %w", err)
	}
	defer resp.Body.Close()
	var h struct {
		ActiveLeases int `json:"active_leases"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, fmt.Errorf("healthz: %w", err)
	}
	return h.ActiveLeases, nil
}

// storeBytes reports the job journal's size and the artifacts' total size.
func (s *service) storeBytes() (journal, artifacts int64) {
	if fi, err := os.Stat(filepath.Join(s.dir, "jobs.jnl")); err == nil {
		journal = fi.Size()
	}
	entries, _ := os.ReadDir(filepath.Join(s.dir, "artifacts"))
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			artifacts += fi.Size()
		}
	}
	return journal, artifacts
}

// jobResult is one finished job as the client saw it.
type jobResult struct {
	op      jobOp
	id      string
	latency time.Duration // submit → artifact bytes in hand
	// queueWait is submit acknowledged → the first poll that no longer saw
	// the job queued; -1 for cached jobs, which never queue.
	queueWait time.Duration
	data      []byte
}

// runJob submits one job, polls it to completion at clientPoll and fetches
// its artifact.
func (s *service) runJob(op jobOp, rec *Recorder) (jobResult, error) {
	res := jobResult{op: op, queueWait: -1}
	root := rec.Begin("job "+op.Kind, "", 0)
	defer rec.End(root)
	ctx := withSpan(context.Background(), root)
	start := time.Now()
	id := rec.Begin("sweepd.Submit", "", root)
	st, err := s.client.Submit(ctx, op.Spec)
	rec.End(id)
	if err != nil {
		return res, fmt.Errorf("submit: %w", err)
	}
	res.id = st.ID
	rec.SetKey(root, st.ID)
	if st.Cached != (op.Kind == kindCached) {
		return res, fmt.Errorf("job %s (%s): served from cache = %v", st.ID, op.Kind, st.Cached)
	}
	acked := time.Now()
	for !st.State.Terminal() {
		time.Sleep(clientPoll)
		id = rec.Begin("sweepd.Job", st.ID, root)
		st, err = s.client.Job(ctx, st.ID)
		rec.End(id)
		if err != nil {
			return res, fmt.Errorf("poll: %w", err)
		}
		if res.queueWait < 0 && st.State != sweepd.StateQueued {
			res.queueWait = time.Since(acked)
		}
	}
	if st.State != sweepd.StateDone {
		return res, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	id = rec.Begin("sweepd.Result", st.ID, root)
	res.data, _, err = s.client.Result(ctx, st.ID)
	rec.End(id)
	if err != nil {
		return res, fmt.Errorf("result: %w", err)
	}
	if res.data == nil {
		return res, fmt.Errorf("job %s: done but no artifact", st.ID)
	}
	res.latency = time.Since(start)
	return res, nil
}

// servicePass is one pass of whole cycles of the closed loop.
type servicePass struct {
	jobs     []jobResult
	cycles   int
	cycleMS  []float64 // wall time of each cycle
	cycleCPU []float64 // the process's CPU time during each cycle, in ms
	refMS    []float64 // reference-kernel samples taken between cycles
	rssMB    float64   // peak RSS after mix.rssCycles cycles, or at the end
	cycle0   int       // jobs in the first cycle
	wall     time.Duration
	attempts int
	failures []string
	claims   []leaseEvent
	uploads  []leaseEvent
	refused  int
}

// runServicePass runs whole cycles of the mix: exactly `cycles` when
// positive, else cycles until `budget` has elapsed (at least one). Each
// cycle is followed by refPerRound reference-kernel samples outside the
// cycle's times.
func runServicePass(s *service, mix serviceMix, seed uint64, cycles int, budget time.Duration, rec *Recorder) servicePass {
	var p servicePass
	gen := &jobGen{mix: mix, seed: seed}
	claims0, uploads0, refused0 := s.tt.leaseLog()
	start := time.Now()
	for c := 0; ; c++ {
		if cycles > 0 && c == cycles || cycles <= 0 && c > 0 && time.Since(start) >= budget {
			break
		}
		t, cpu := time.Now(), cpuSeconds()
		for _, op := range gen.next() {
			p.attempts++
			res, err := s.runJob(op, rec)
			if err != nil {
				p.failures = append(p.failures, err.Error())
				continue
			}
			p.jobs = append(p.jobs, res)
		}
		p.cycleMS = append(p.cycleMS, ms(time.Since(t)))
		p.cycleCPU = append(p.cycleCPU, 1000*(cpuSeconds()-cpu))
		p.refMS = append(p.refMS, refSamples(refPerRound)...)
		if c == 0 {
			p.cycle0 = len(p.jobs)
		}
		p.cycles++
		if p.cycles == mix.rssCycles {
			p.rssMB = maxRSSMB()
		}
	}
	p.wall = time.Since(start)
	if p.rssMB == 0 {
		p.rssMB = maxRSSMB()
	}
	claims, uploads, refused := s.tt.leaseLog()
	p.claims, p.uploads, p.refused = claims[len(claims0):], uploads[len(uploads0):], refused-refused0
	return p
}

// jobDigest is a finished job's deterministic identity: what was asked and
// the hash of the bytes that came back. Job IDs, ports and paths stay out.
type jobDigest struct {
	Kind       string `json:"kind"`
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed"`
	Artifact   string `json:"artifact_sha256"`
}

func digestJobs(jobs []jobResult) []jobDigest {
	out := make([]jobDigest, len(jobs))
	for i, j := range jobs {
		sum := sha256.Sum256(j.data)
		out[i] = jobDigest{j.op.Kind, j.op.Spec.Experiment, j.op.Spec.Seed, hex.EncodeToString(sum[:])}
	}
	return out
}

// latencies splits job latencies by kind, in milliseconds.
func (p servicePass) latencies() map[string][]float64 {
	out := map[string][]float64{}
	for _, j := range p.jobs {
		out[j.op.Kind] = append(out[j.op.Kind], ms(j.latency))
	}
	return out
}

// replicates counts the replicates the service computed for the pass's
// jobs: a cached job computes none.
func (p servicePass) replicates() int {
	n := 0
	for _, j := range p.jobs {
		if j.op.Kind == kindCached {
			continue
		}
		exp, _ := scenario.Find(j.op.Spec.Experiment)
		n += exp.EstimatedReps(scenario.Config{Quick: j.op.Spec.Quick, Seed: j.op.Spec.Seed})
	}
	return n
}

// leaseLatencies pairs each acknowledged upload with its lease's grant:
// claim → upload per slot, and the slot time since the lease's previous
// event (the grant or the previous upload).
func leaseLatencies(claims, uploads []leaseEvent) (claimToUpload, slot []float64) {
	last := map[string]time.Time{}
	granted := map[string]time.Time{}
	for _, c := range claims {
		granted[c.lease], last[c.lease] = c.at, c.at
	}
	for _, u := range uploads {
		g, ok := granted[u.lease]
		if !ok {
			continue
		}
		claimToUpload = append(claimToUpload, ms(u.at.Sub(g)))
		slot = append(slot, ms(u.at.Sub(last[u.lease])))
		last[u.lease] = u.at
	}
	return claimToUpload, slot
}

// setupService is a service workload's set-up: the service's start and
// its warm-up job. Undoing it is the checked shutdown.
func setupService(_ string, cfg runConfig) (func() error, error) {
	s, err := startService(cfg.workdir, cfg.seed, nil)
	if err != nil {
		return nil, fmt.Errorf("starting the service: %w", err)
	}
	stop := func() error { return errors.Join(s.stop()...) }
	if _, err := s.runJob(warmupJob, nil); err != nil {
		return nil, errors.Join(fmt.Errorf("warm-up job: %w", err), stop())
	}
	return stop, nil
}

// runService runs a service workload: the set-up probes, its own service
// start and warm-up job, the timed closed loop, the output checks and a
// checked shutdown; with trace, also a traced pass over the same cycles on
// a fresh service.
func runService(name string, cfg runConfig) (outcome, error) {
	mix := serviceMixes[name]
	o := newOutcome()
	setups := o.measureSetup(name, cfg, setupSamples/2)
	svc, err := startService(cfg.workdir, cfg.seed, nil)
	if err != nil {
		return o, fmt.Errorf("starting the service: %w", err)
	}
	if _, err := svc.runJob(warmupJob, nil); err != nil {
		o.stopChecked(svc)
		return o, fmt.Errorf("warm-up job: %w", err)
	}

	cpu := cpuSeconds()
	timed := runServicePass(svc, mix, cfg.seed, 0, cfg.seconds, nil)
	o.report["cpu_per_wall"] = (cpuSeconds() - cpu) / timed.wall.Seconds()
	o.e2e["max_rss_mb"] = timed.rssMB
	o.report["rss_cycles"] = min(mix.rssCycles, timed.cycles)
	o.stopChecked(svc)
	setups = append(setups, o.measureSetup(name, cfg, setupSamples-setupSamples/2)...)
	o.countPass(timed)
	// Every cycle sends the same mix, so the median cycle is the steady
	// figure, and dividing it by the reference kernel's median takes out
	// most of the host's changes of speed; the report keeps the raw rates,
	// every cycle's times and every kernel sample.
	cycleS := median(timed.cycleMS) / 1000
	perCycle := float64(timed.replicates()) / float64(timed.cycles)
	o.e2e["setup_s"] = median(setups)
	o.report["setup_s_each"] = setups
	o.e2e["replicates_per_ref_s"] = perRefSecond(perCycle, median(timed.cycleCPU), timed.refMS)
	o.e2e["replicates_per_cpu_s"] = perCycle / (median(timed.cycleCPU) / 1000)
	o.e2e["replicates_per_s"] = perCycle / cycleS
	o.e2e["jobs_per_s"] = float64(len(timed.jobs)) / float64(timed.cycles) / cycleS
	o.report["ref_ms"] = median(timed.refMS)
	o.report["ref_ms_each"] = timed.refMS
	o.report["cycle_ms"] = timed.cycleMS
	o.report["cycle_cpu_ms"] = timed.cycleCPU
	o.report["mean_jobs_per_s"] = float64(len(timed.jobs)) / timed.wall.Seconds()

	o.checkCacheBytes(timed)
	o.checkRecompute(cfg.seed, timed)
	o.setDigest(name, cfg.seed, digestJobs(timed.jobs[:timed.cycle0]))

	lat := timed.latencies()
	claimToUpload, slot := leaseLatencies(timed.claims, timed.uploads)
	o.report["mix"] = mix.experiments
	o.report["resubmit"] = mix.resubmit
	o.report["client_poll_ms"] = ms(clientPoll)
	o.report["worker_poll_ms"] = ms(workerPoll)
	jobs, share := map[string]int{}, map[string]float64{}
	var cycleTotal float64
	for _, c := range timed.cycleMS {
		cycleTotal += c
	}
	for kind, xs := range lat {
		jobs[kind] = len(xs)
		var sum float64
		for _, x := range xs {
			sum += x
		}
		share[kind] = sum / cycleTotal
	}
	o.report["jobs"] = jobs
	// Each kind's share of the timed cycles' wall time: how much of the
	// cycle each kind's path can move.
	o.report["cycle_share"] = share
	o.report["facts"] = map[string]any{"uploads": len(timed.uploads), "claims_granted": len(timed.claims)}
	for kind, metric := range map[string]string{kindFresh: "job_fresh_p50_ms", kindCached: "job_cached_p50_ms", kindSharded: "job_sharded_p50_ms"} {
		if len(lat[kind]) > 0 {
			o.e2e[metric] = median(lat[kind])
		}
	}
	if len(claimToUpload) > 0 {
		o.e2e["lease_claim_upload_p50_ms"] = median(claimToUpload)
	}
	o.report["tails_ms"] = map[string]Tail{kindFresh: tail(lat[kindFresh]), kindCached: tail(lat[kindCached]),
		kindSharded: tail(lat[kindSharded]), "lease_claim_upload": tail(claimToUpload)}

	if !cfg.trace {
		return o, nil
	}
	rec := NewRecorder()
	svc, err = startService(cfg.workdir, cfg.seed, rec)
	if err != nil {
		return o, fmt.Errorf("starting the traced service: %w", err)
	}
	if _, err := svc.runJob(warmupJob, nil); err != nil {
		o.stopChecked(svc)
		return o, fmt.Errorf("warm-up job: %w", err)
	}
	spansBefore := len(rec.Spans())
	traced := runServicePass(svc, mix, cfg.seed, timed.cycles, 0, rec)
	journal, artifacts := svc.storeBytes()
	o.stopChecked(svc)
	o.countPass(traced)
	if !bytes.Equal(mustJSON(digestJobs(traced.jobs)), mustJSON(digestJobs(timed.jobs))) {
		o.fail("the traced pass returned different jobs or artifact bytes than the untraced pass")
	}
	spans := rec.Spans()[spansBefore:]
	o.layer = serviceLayers(traced, spans, slot, lat)
	for _, k := range []string{"job_fresh_p50_ms", "job_cached_p50_ms", "job_sharded_p50_ms", "lease_claim_upload_p50_ms"} {
		o.layer[k] = o.e2e[k]
	}
	o.layer["sweepd.store.journal_bytes"] = float64(journal)
	o.layer["sweepd.store.artifact_bytes"] = float64(artifacts)
	o.layer["trace.spans"] = float64(len(spans))
	o.layer["trace.overhead_frac"] = median(traced.cycleMS)/median(timed.cycleMS) - 1
	return o, o.writeTrace(cfg, name, spans)
}

// stopChecked shuts a service down, counting the shutdown as one operation
// that fails on any error or leftover lease.
func (o *outcome) stopChecked(s *service) {
	o.attempted++
	if errs := s.stop(); len(errs) > 0 {
		o.failed++
		for _, err := range errs {
			o.fail("shutdown: " + err.Error())
		}
	}
}

// countPass adds a pass's jobs to the operation counts.
func (o *outcome) countPass(p servicePass) {
	o.attempted += p.attempts
	o.failed += len(p.failures)
	for _, f := range p.failures {
		o.fail(f)
	}
}

// checkCacheBytes requires every cache hit to return the bytes the spec's
// fresh run returned.
func (o *outcome) checkCacheBytes(p servicePass) {
	first := map[string][]byte{}
	for _, j := range p.jobs {
		h := j.op.Spec.Hash()
		if prev, ok := first[h]; ok && !bytes.Equal(prev, j.data) {
			o.failed++
			o.fail(fmt.Sprintf("job %s (%s %s seed %d) returned different bytes than its first fetch",
				j.id, j.op.Kind, j.op.Spec.Experiment, j.op.Spec.Seed))
		} else if !ok {
			first[h] = j.data
		}
	}
}

// checkRecompute recomputes, for each computing job kind of the first
// cycle (fresh, sharded), one seed-chosen job of that kind in-process,
// through the registry and sweepd.MarshalArtifact, and requires the served
// bytes. Each recompute is one operation.
func (o *outcome) checkRecompute(seed uint64, p servicePass) {
	checked := 0
	for i, kind := range []string{kindFresh, kindSharded} {
		var pool []jobResult
		for _, j := range p.jobs[:p.cycle0] {
			if j.op.Kind == kind {
				pool = append(pool, j)
			}
		}
		if len(pool) == 0 {
			continue
		}
		checked++
		o.attempted++
		j := pool[pick(seed, 0x7265636f6d70+uint64(i), len(pool))]
		exp, _ := scenario.Find(j.op.Spec.Experiment)
		res, err := exp.Run(scenario.Config{Quick: j.op.Spec.Quick, Seed: j.op.Spec.Seed, Parallel: 1})
		var want []byte
		if err == nil {
			want, err = sweepd.MarshalArtifact(res)
		}
		if err != nil {
			o.failed++
			o.fail(fmt.Sprintf("recomputing %s seed %d: %v", j.op.Spec.Experiment, j.op.Spec.Seed, err))
			continue
		}
		if !bytes.Equal(want, j.data) {
			o.failed++
			o.fail(fmt.Sprintf("%s seed %d: served bytes differ from the in-process recompute",
				j.op.Spec.Experiment, j.op.Spec.Seed))
		}
		o.report["recomputed_"+kind] = fmt.Sprintf("%s seed %d", j.op.Spec.Experiment, j.op.Spec.Seed)
	}
	if checked == 0 {
		o.fail("no fresh or sharded job finished in the first cycle")
	}
}

// serviceLayers derives the service's per-layer metrics from the traced
// pass: client-call spans for sweepd, wire spans for the lease plane, and
// the untraced pass's latencies for the tails and lease timings.
func serviceLayers(p servicePass, spans []Span, slot []float64, lat map[string][]float64) map[string]float64 {
	durs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], ms(s.Dur()))
	}
	var waits []float64
	var resultBytes, cached, dups int
	for _, j := range p.jobs {
		if j.queueWait >= 0 {
			waits = append(waits, ms(j.queueWait))
		}
		resultBytes += len(j.data)
		if j.op.Kind == kindCached {
			cached++
		}
	}
	for _, u := range p.uploads {
		if u.duplicate {
			dups++
		}
	}
	const lease = "http POST /v1/leases/"
	claims := float64(len(durs[lease+"claim"]))
	fresh, cachedTail := tail(lat[kindFresh]), tail(lat[kindCached])
	sim := artifactCounts(p.jobs)
	return map[string]float64{
		"dram.activations":               sim.Activations,
		"dram.flips":                     sim.Flips,
		"pmu.samples":                    sim.SamplesTaken,
		"pmu.dropped":                    sim.PMUDropped,
		"anvil.detections":               sim.Detections,
		"anvil.refreshes":                sim.DefenseRefreshes,
		"sweepd.submit.calls":            float64(len(durs["sweepd.Submit"])),
		"sweepd.submit.p50_ms":           median(durs["sweepd.Submit"]),
		"sweepd.poll.calls":              float64(len(durs["sweepd.Job"])),
		"sweepd.queue_wait.p50_ms":       median(waits),
		"sweepd.result.p50_ms":           median(durs["sweepd.Result"]),
		"sweepd.result.bytes":            float64(resultBytes),
		"sweepd.cache_hit_ratio":         ratio(float64(cached), float64(len(durs["sweepd.Submit"]))),
		"sweepd.retries":                 float64(p.refused),
		"sweepd.job_fresh.tail_ms":       fresh.Value,
		"sweepd.job_fresh.tail_pct":      fresh.Percentile,
		"sweepd.job_fresh.tail_samples":  float64(fresh.Samples),
		"sweepd.job_cached.tail_ms":      cachedTail.Value,
		"sweepd.job_cached.tail_pct":     cachedTail.Percentile,
		"sweepd.job_cached.tail_samples": float64(cachedTail.Samples),
		"lease.claim.calls":              claims,
		"lease.claim.useful_ratio":       ratio(float64(len(p.claims)), claims),
		"lease.renew.calls":              float64(len(durs[lease+"{id}/renew"])),
		"lease.upload.calls":             float64(len(durs[lease+"{id}/results"])),
		"lease.upload.p50_ms":            median(durs[lease+"{id}/results"]),
		"lease.upload.duplicates":        float64(dups),
		"lease.release.calls":            float64(len(durs[lease+"{id}/release"])),
		"workerd.slot.p50_ms":            median(slot),
	}
}

// simTotals sums the scenario.Results fields a served artifact carries for
// each of its replicates: the simulator's work inside the service, which
// the benchmark cannot reach with spans or counters.
type simTotals struct {
	Flips            float64 `json:"flips"`
	Activations      float64 `json:"activations"`
	Detections       float64 `json:"detections"`
	DefenseRefreshes float64 `json:"defense_refreshes"`
	SamplesTaken     float64 `json:"samples_taken"`
	PMUDropped       float64 `json:"pmu_dropped"`
}

// artifactCounts adds up the scenario.Results of every computed (not
// cached) job's artifact: each JSON object in the artifact's data that has
// the samples_taken field is one replicate's Results.
func artifactCounts(jobs []jobResult) simTotals {
	var t simTotals
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			if _, ok := v["samples_taken"]; ok {
				var r simTotals
				if json.Unmarshal(mustJSON(v), &r) == nil {
					t.Flips += r.Flips
					t.Activations += r.Activations
					t.Detections += r.Detections
					t.DefenseRefreshes += r.DefenseRefreshes
					t.SamplesTaken += r.SamplesTaken
					t.PMUDropped += r.PMUDropped
				}
				return
			}
			for _, x := range v {
				walk(x)
			}
		case []any:
			for _, x := range v {
				walk(x)
			}
		}
	}
	for _, j := range jobs {
		if j.op.Kind == kindCached {
			continue
		}
		var a struct {
			Data json.RawMessage `json:"data"`
		}
		var data any
		if json.Unmarshal(j.data, &a) == nil && json.Unmarshal(a.Data, &data) == nil {
			walk(data)
		}
	}
	return t
}
