package sweepd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/journal"
)

// storeRecord is one framed record of the job-store journal, JSON-encoded.
// Kind discriminates: "job" (a submission: identity + spec, fsynced before
// the submission is acknowledged) and "state" (one state-machine
// transition, carrying the completion charge and artifact fingerprint when
// terminal).
type storeRecord struct {
	Kind     string   `json:"kind"`
	ID       string   `json:"id"`
	Caller   string   `json:"caller,omitempty"`
	Spec     *JobSpec `json:"spec,omitempty"`
	SpecHash string   `json:"spec_hash,omitempty"`
	State    JobState `json:"state,omitempty"`
	Error    string   `json:"error,omitempty"`
	// Artifact names the result file under artifacts/; Sum is the hex
	// SHA-256 of its bytes, the corruption check every fetch re-verifies.
	Artifact string `json:"artifact,omitempty"`
	Sum      string `json:"sum,omitempty"`
	// Fresh and Resumed are the completion charge: Fresh replicates were
	// executed this run (and bill the caller), Resumed were merged back
	// from the sweep checkpoint journal (and bill nothing).
	Fresh   int    `json:"fresh,omitempty"`
	Resumed int    `json:"resumed,omitempty"`
	WallMS  int64  `json:"wall_ms,omitempty"`
	Reason  string `json:"reason,omitempty"`
}

// cacheEntry is one content-addressed result: the artifact serving a spec
// hash and the job that produced it.
type cacheEntry struct {
	JobID string
	File  string
	Sum   string
}

// A Store is the crash-safe job store: an append-only journal of job
// submissions and state transitions under <dir>/jobs.jnl, result artifacts
// under <dir>/artifacts/, and per-spec sweep checkpoint journals under
// <dir>/sweeps/. Every mutating method journals its record and fsyncs
// before updating in-memory state, so the in-memory view is always a replay
// of the durable log — kill -9 at any instant loses nothing acknowledged.
//
// The journal file is exclusively locked (journal.ErrLocked) for the life
// of the Store, so two servers can never interleave appends on one data
// directory.
type Store struct {
	dir string

	mu     sync.Mutex
	w      *journal.Writer
	jobs   map[string]*Job
	order  []string // job IDs in submission order (replay and listing order)
	nextID uint64
	cache  map[string]cacheEntry // spec hash → done artifact (cacheable specs only)
	live   map[string]string     // spec hash → queued/running job ID (single-flight)
	usage  map[string]*Usage     // caller → charged usage
}

// OpenStore opens (creating or recovering) the job store rooted at dir. A
// journal already held by a live server is refused with journal.ErrLocked.
func OpenStore(dir string) (*Store, error) {
	for _, sub := range []string{"", "artifacts", "sweeps"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("sweepd: creating store directory: %w", err)
		}
	}
	s := &Store{
		dir:    dir,
		jobs:   map[string]*Job{},
		cache:  map[string]cacheEntry{},
		live:   map[string]string{},
		usage:  map[string]*Usage{},
		nextID: 1,
	}
	path := filepath.Join(dir, "jobs.jnl")
	if _, err := os.Stat(path); os.IsNotExist(err) {
		w, err := journal.Create(path)
		if err != nil {
			return nil, err
		}
		s.w = w
	} else if err != nil {
		return nil, err
	} else {
		records, w, err := journal.Recover(path)
		if err != nil {
			return nil, err
		}
		s.w = w
		if err := s.replay(records); err != nil {
			w.Close()
			return nil, err
		}
	}
	// Job records are rare next to replicate work and each one is an
	// acknowledgement boundary: sync every record.
	s.w.SyncEvery = 1
	return s, nil
}

// replay rebuilds the in-memory view from the journal's records. Records a
// killed server half-applied are harmless: the journal is the truth, and
// anything not in it was never acknowledged.
func (s *Store) replay(records [][]byte) error {
	for i, raw := range records {
		var rec storeRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("sweepd: store record %d does not decode: %w", i, err)
		}
		switch rec.Kind {
		case "job":
			if rec.Spec == nil || rec.ID == "" {
				return fmt.Errorf("sweepd: store record %d: malformed job record", i)
			}
			job := &Job{ID: rec.ID, Caller: rec.Caller, Spec: *rec.Spec, SpecHash: rec.SpecHash}
			job.state = StateQueued
			s.jobs[rec.ID] = job
			s.order = append(s.order, rec.ID)
			if seq, err := parseJobID(rec.ID); err == nil && seq >= s.nextID {
				s.nextID = seq + 1
			}
		case "state":
			job := s.jobs[rec.ID]
			if job == nil {
				return fmt.Errorf("sweepd: store record %d: state for unknown job %s", i, rec.ID)
			}
			job.setState(rec.State, rec.Error, rec.Artifact, rec.Sum)
			if rec.State.Terminal() {
				s.chargeLocked(job.Caller, rec.Fresh, time.Duration(rec.WallMS)*time.Millisecond)
			}
		default:
			return fmt.Errorf("sweepd: store record %d: unknown kind %q", i, rec.Kind)
		}
	}
	// Rebuild the derived indexes from final job states, in submission
	// order so single-flight picks the earliest live job.
	for _, id := range s.order {
		job := s.jobs[id]
		switch job.State() {
		case StateQueued, StateRunning:
			if _, dup := s.live[job.SpecHash]; !dup {
				s.live[job.SpecHash] = id
			}
		case StateDone:
			if file, sum := job.artifactRef(); file != "" && job.Spec.Cacheable() {
				s.cache[job.SpecHash] = cacheEntry{JobID: id, File: file, Sum: sum}
			}
		}
	}
	return nil
}

// chargeLocked accrues one completion record's charge. Caller holds s.mu
// (or has exclusive access during replay).
func (s *Store) chargeLocked(caller string, fresh int, wall time.Duration) {
	u := s.usage[caller]
	if u == nil {
		u = &Usage{}
		s.usage[caller] = u
	}
	u.add(fresh, wall)
}

// parseJobID extracts the sequence number of a "j-NNNNNN" job ID.
func parseJobID(id string) (uint64, error) {
	rest, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0, fmt.Errorf("sweepd: malformed job ID %q", id)
	}
	return strconv.ParseUint(rest, 10, 64)
}

// append journals one record and fsyncs it — the durability point every
// acknowledgement sits behind. Caller holds s.mu.
func (s *Store) appendLocked(rec storeRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sweepd: encoding store record: %w", err)
	}
	return s.w.Append(raw) // SyncEvery=1: Append syncs
}

// Submit journals a new job (durable before return) and returns it. The
// caller is responsible for admission checks — nothing rejected for quota
// or queue depth should ever reach the journal.
func (s *Store) Submit(caller string, spec JobSpec) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := fmt.Sprintf("j-%06d", s.nextID)
	job := &Job{ID: id, Caller: caller, Spec: spec, SpecHash: spec.Hash()}
	job.state = StateQueued
	if err := s.appendLocked(storeRecord{
		Kind: "job", ID: id, Caller: caller, Spec: &spec, SpecHash: job.SpecHash,
	}); err != nil {
		return nil, err
	}
	s.nextID++
	s.jobs[id] = job
	s.order = append(s.order, id)
	if _, dup := s.live[job.SpecHash]; !dup {
		s.live[job.SpecHash] = id
	}
	return job, nil
}

// transition journals one state record (durable before return) and applies
// it in memory.
func (s *Store) transition(job *Job, rec storeRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.Kind = "state"
	rec.ID = job.ID
	if err := s.appendLocked(rec); err != nil {
		return err
	}
	job.setState(rec.State, rec.Error, rec.Artifact, rec.Sum)
	if rec.State.Terminal() {
		s.chargeLocked(job.Caller, rec.Fresh, time.Duration(rec.WallMS)*time.Millisecond)
		if s.live[job.SpecHash] == job.ID {
			delete(s.live, job.SpecHash)
		}
	}
	if rec.State == StateDone && rec.Artifact != "" && job.Spec.Cacheable() {
		s.cache[job.SpecHash] = cacheEntry{JobID: job.ID, File: rec.Artifact, Sum: rec.Sum}
	}
	return nil
}

// MarkRunning journals the queued → running transition.
func (s *Store) MarkRunning(job *Job) error {
	return s.transition(job, storeRecord{State: StateRunning})
}

// MarkDone journals a successful completion: artifact fingerprint plus the
// quota charge (fresh replicates and wall-clock — this record, and only
// this record, bills the caller).
func (s *Store) MarkDone(job *Job, artifact, sum string, fresh, resumed int, wall time.Duration) error {
	return s.transition(job, storeRecord{
		State: StateDone, Artifact: artifact, Sum: sum,
		Fresh: fresh, Resumed: resumed, WallMS: wall.Milliseconds(),
	})
}

// MarkFailed journals a failed completion; the work actually executed
// (fresh replicates, wall-clock) still charges the caller.
func (s *Store) MarkFailed(job *Job, errText string, fresh, resumed int, wall time.Duration) error {
	return s.transition(job, storeRecord{
		State: StateFailed, Error: errText,
		Fresh: fresh, Resumed: resumed, WallMS: wall.Milliseconds(),
	})
}

// MarkTruncated journals a budget-truncated completion. Replicate-budget
// truncation is deterministic, so a truncated sweep still publishes its
// partial artifact; errText names the dropped range.
func (s *Store) MarkTruncated(job *Job, errText, artifact, sum string, fresh, resumed int, wall time.Duration) error {
	return s.transition(job, storeRecord{
		State: StateTruncated, Error: errText, Artifact: artifact, Sum: sum,
		Fresh: fresh, Resumed: resumed, WallMS: wall.Milliseconds(),
	})
}

// Requeue journals a done → queued transition (artifact corruption
// recompute). The spec's sweep checkpoint journal survives, so the re-run
// merges every replicate back and re-derives the artifact without
// re-simulating — and without re-charging the caller.
func (s *Store) Requeue(job *Job, reason string) error {
	s.mu.Lock()
	if entry, ok := s.cache[job.SpecHash]; ok && entry.JobID == job.ID {
		delete(s.cache, job.SpecHash)
	}
	if _, dup := s.live[job.SpecHash]; !dup {
		s.live[job.SpecHash] = job.ID
	}
	s.mu.Unlock()
	job.resetProgress()
	return s.transition(job, storeRecord{State: StateQueued, Reason: reason})
}

// Lookup returns the job with the given ID.
func (s *Store) Lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	return job, ok
}

// Cached returns the content-addressed done artifact for a spec hash.
func (s *Store) Cached(specHash string) (cacheEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, ok := s.cache[specHash]
	return entry, ok
}

// Live returns the queued/running job already covering a spec hash, for
// idempotent submission.
func (s *Store) Live(specHash string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.live[specHash]
	if !ok {
		return nil, false
	}
	return s.jobs[id], true
}

// Pending returns the queued and running jobs in submission order — what a
// restarted server re-enqueues.
func (s *Store) Pending() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for _, id := range s.order {
		job := s.jobs[id]
		if st := job.State(); st == StateQueued || st == StateRunning {
			out = append(out, job)
		}
	}
	return out
}

// UsageFor returns a caller's charged usage (zero value when unknown).
func (s *Store) UsageFor(caller string) Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	if u := s.usage[caller]; u != nil {
		return *u
	}
	return Usage{}
}

// SweepDir returns (creating) the sweep checkpoint directory for a spec
// hash. Keyed by spec hash, not job ID, so a recompute of the same spec
// resumes the original sweep's journal instead of re-simulating.
func (s *Store) SweepDir(specHash string) (string, error) {
	dir := filepath.Join(s.dir, "sweeps", specHash)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("sweepd: creating sweep directory: %w", err)
	}
	return dir, nil
}

// WriteArtifact stores result bytes content-addressed by the job's spec
// hash (or job ID for uncacheable specs), atomically via tmp+rename, and
// returns the artifact file name and its hex SHA-256.
func (s *Store) WriteArtifact(job *Job, data []byte) (file, sum string, err error) {
	name := job.SpecHash + ".json"
	if !job.Spec.Cacheable() {
		name = job.ID + ".json"
	}
	dir := filepath.Join(s.dir, "artifacts")
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return "", "", fmt.Errorf("sweepd: writing artifact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return "", "", fmt.Errorf("sweepd: writing artifact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", "", fmt.Errorf("sweepd: syncing artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", "", fmt.Errorf("sweepd: closing artifact: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return "", "", fmt.Errorf("sweepd: publishing artifact: %w", err)
	}
	h := sha256.Sum256(data)
	return name, hex.EncodeToString(h[:]), nil
}

// ErrArtifactCorrupt marks an artifact whose bytes no longer match their
// journaled fingerprint. Fetch paths treat it as a cache miss and
// recompute — corrupted bytes are never served.
var ErrArtifactCorrupt = fmt.Errorf("sweepd: artifact corrupt")

// ReadArtifact loads and verifies an artifact: the bytes must hash to the
// journaled sum or the read fails with ErrArtifactCorrupt.
func (s *Store) ReadArtifact(file, sum string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, "artifacts", file))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrArtifactCorrupt, err)
	}
	h := sha256.Sum256(data)
	if got := hex.EncodeToString(h[:]); got != sum {
		return nil, fmt.Errorf("%w: %s hashes to %s, journal records %s", ErrArtifactCorrupt, file, got, sum)
	}
	return data, nil
}

// Sync flushes the store journal (records are synced per-append; this is a
// belt for Close paths).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Sync()
}

// Close syncs and closes the store journal, releasing its exclusive lock.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Close()
}
