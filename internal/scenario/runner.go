package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// ReplicateSeed derives the root seed of replicate rep from a base seed. It
// is a pure function — the same (base, rep) always maps to the same seed —
// and consecutive replicates get decorrelated seeds, so a sweep can hand
// each replicate its own RNG root without the replicates sharing state.
func ReplicateSeed(base uint64, rep int) uint64 {
	r := sim.NewRand(base ^ 0x9e3779b97f4a7c15*uint64(rep+1))
	return r.Uint64()
}

// ErrTransient marks a replicate failure worth retrying: the kind that a
// rerun on healthier resources can clear (a starved replicate blowing its
// wall-clock deadline, a degraded-hardware profile's injected fault). Wrap
// with MarkTransient; classify with Transient.
var ErrTransient = errors.New("transient failure")

// Transient reports whether a replicate error is retryable: anything marked
// ErrTransient, plus per-replicate wall-clock timeouts (a timed-out
// replicate gets a fresh deadline on retry). Cancellation is never
// transient — it is the caller stopping the sweep.
func Transient(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, context.DeadlineExceeded)
}

// MarkTransient tags err as retryable. It is a no-op on nil and on errors
// already classified transient.
func MarkTransient(err error) error {
	if err == nil || Transient(err) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// DefaultRetryBackoff is the base backoff before a first retry when
// Options.RetryBackoff is zero.
const DefaultRetryBackoff = 100 * time.Millisecond

// retrySalt decorrelates the backoff jitter stream from the replicate's own
// simulation stream: both derive from ReplicateSeed, but the jitter draw
// must never advance (or collide with) the RNG the replicate simulates with.
const retrySalt = 0xb5ad4eceda1ce2a9

// RetryDelay is the backoff before retry attempt (1-based) of replicate rep:
// exponential doubling of the base, jittered into [base·2ᵃ⁻¹/2, base·2ᵃ⁻¹]
// by the replicate's own seed substream. The schedule is a pure function of
// (BaseSeed, RetryBackoff, rep, attempt), so retry timing — and therefore
// logs — is reproducible run over run.
func RetryDelay(opts Options, rep, attempt int) time.Duration {
	base := opts.RetryBackoff
	if base <= 0 {
		base = DefaultRetryBackoff
	}
	if attempt < 1 {
		attempt = 1
	}
	shift := attempt - 1
	if shift > 16 {
		shift = 16 // cap the doubling; MaxRetries in the hundreds stays sane
	}
	exp := base << shift
	half := exp / 2
	r := sim.NewRand(ReplicateSeed(opts.BaseSeed, rep) ^ retrySalt ^ 0x9e3779b97f4a7c15*uint64(attempt))
	return half + time.Duration(r.Uint64n(uint64(half)+1))
}

// Budget bounds a sweep. When either limit is hit the sweep stops scheduling
// new replicates, journals a truncation marker (when journaling), and
// returns the completed replicates with SweepStatus.Truncated set and the
// dropped replicate indices reported — partial results are tagged, never
// silent, and never an invented failure.
type Budget struct {
	// WallClock bounds the sweep's host wall-clock time; zero means
	// unlimited. It is checked at scheduling points only, so an in-flight
	// replicate always finishes (or times out) — wall-clock pressure can
	// shrink a sweep but never change a completed replicate's bytes.
	WallClock time.Duration
	// Replicates bounds how many replicates may execute this run; zero
	// means unlimited. Replicates merged from a resumed journal are free.
	Replicates int
}

// IsZero reports whether the budget is unlimited.
func (b Budget) IsZero() bool { return b == Budget{} }

// A ProgressEvent reports one replicate of a sweep reaching its result slot:
// either freshly computed (and journaled, when the sweep journals) or merged
// back out of a resume journal. Events exist so a long sweep can be watched
// from outside — cmd/anvilserved streams them as job progress — and carry no
// information that feeds back into any replicate: observing a sweep can
// never change its bytes.
type ProgressEvent struct {
	// Rep is the replicate index that completed.
	Rep int
	// Resumed marks a replicate merged from the journal instead of run.
	Resumed bool
	// Completed counts replicates completed so far (resumed included);
	// Total is the sweep size. Completed == Total on the sweep's last event.
	Completed int
	Total     int
}

// Options tunes a RunSweep sweep. The zero value runs every replicate once,
// with no journal, no retries and no budget.
type Options struct {
	// Workers caps the worker pool; <= 0 means GOMAXPROCS. Parallelism never
	// changes results or errors — only wall-clock time.
	Workers int
	// Timeout is the per-replicate wall-clock deadline, enforced through
	// the context handed to each replicate; zero means none. A replicate
	// that ignores its context is abandoned (its goroutine keeps running,
	// its result is discarded) and reported as context.DeadlineExceeded.
	// Wall-clock deadlines never influence simulated results — a replicate
	// either completes (same bytes as ever) or errors out.
	Timeout time.Duration
	// KeepGoing returns every completed replicate's result plus a
	// *SweepError collecting the failures, instead of discarding the sweep
	// on the first error.
	KeepGoing bool
	// MaxRetries re-runs a replicate whose failure is Transient up to this
	// many extra times, sleeping RetryDelay between attempts. Retried
	// successes count as successes; the sweep's total retry count lands in
	// SweepStatus.Retries.
	MaxRetries int
	// RetryBackoff is the base backoff before the first retry; zero means
	// DefaultRetryBackoff. Backoff sleeps are host wall-clock only — they
	// are never folded into simulated time.
	RetryBackoff time.Duration
	// BaseSeed seeds the retry-backoff jitter substreams (see RetryDelay).
	// It has no effect on replicate results; Config.RunOptions wires it to
	// the experiment seed so retry schedules are reproducible.
	BaseSeed uint64
	// Journal, when non-nil, checkpoints one record per completed replicate
	// so a killed sweep can resume. Results must round-trip through
	// encoding/json (every registry result type does).
	Journal *Journal
	// Resume merges replicates already recorded in Journal instead of
	// re-running them. The journal's meta must match the running sweep.
	Resume bool
	// Budget bounds the sweep; see Budget.
	Budget Budget
	// Slots, when non-nil, restricts the sweep to the listed replicate
	// indices: replicates outside the set are skipped entirely — not
	// executed, not resumed, not reported as progress or failure; their
	// result slots stay zero values. Slot restriction is how a distributed
	// worker executes its leased share of a sweep: the per-replicate work it
	// does perform is byte-identical to the unrestricted sweep's, because a
	// replicate's seed and inputs depend only on its index (ReplicateSeed),
	// never on which other replicates run alongside it.
	Slots []int
	// OnResult, when non-nil, receives each freshly-computed replicate's
	// canonical JSON encoding — exactly the bytes a journal Record would
	// store, and therefore exactly the bytes a resume merges back. A
	// distributed worker uses it to upload replicate results keyed by
	// (spec-hash, replicate). A non-nil error fails the replicate (a result
	// that cannot be delivered is as lost as one that was never computed);
	// callers wanting retries classify the error Transient themselves.
	OnResult func(rep int, raw json.RawMessage) error
	// OnProgress, when non-nil, is invoked once per replicate that reaches
	// its result slot — resumed replicates first (in ascending order, before
	// any worker starts), then computed ones as they finish. It is called
	// from worker goroutines and must be safe for concurrent use; it must
	// not block, or it stalls the sweep. Progress observation never
	// influences replicate results.
	OnProgress func(ProgressEvent)
}

// SweepStatus reports how a sweep ended beyond its per-replicate failures.
// The zero value means: everything ran, nothing resumed, nothing retried.
type SweepStatus struct {
	// Truncated is set when the budget ran out before every replicate did;
	// Reason says which limit, Dropped lists the replicate indices that
	// never ran (their result slots are zero values).
	Truncated bool   `json:"truncated,omitempty"`
	Reason    string `json:"reason,omitempty"`
	Dropped   []int  `json:"dropped,omitempty"`
	// Resumed counts replicates merged from the journal instead of run.
	Resumed int `json:"resumed,omitempty"`
	// Retries counts transient-failure retries across the whole sweep.
	Retries int `json:"retries,omitempty"`
}

// DroppedRange renders the dropped replicate indices compactly ("5-11" or
// "3,5-7"), for error text and reports.
func (s SweepStatus) DroppedRange() string {
	if len(s.Dropped) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i < len(s.Dropped); {
		j := i
		for j+1 < len(s.Dropped) && s.Dropped[j+1] == s.Dropped[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if i == j {
			fmt.Fprintf(&b, "%d", s.Dropped[i])
		} else {
			fmt.Fprintf(&b, "%d-%d", s.Dropped[i], s.Dropped[j])
		}
		i = j + 1
	}
	return b.String()
}

// ReplicateError is one replicate's failure, tagged with the replicate
// index so a partial sweep remains attributable. It renders as
// "scenario: replicate N: ..." and unwraps to the underlying error.
type ReplicateError struct {
	Rep int
	Err error
	// Panicked marks an error recovered from a panicking replicate; Stack
	// is the panicking goroutine's stack trace.
	Panicked bool
	Stack    string
	// Attempts is how many times the replicate ran (1 without retries).
	Attempts int
}

func (e *ReplicateError) Error() string {
	return fmt.Sprintf("scenario: replicate %d: %v", e.Rep, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ReplicateError) Unwrap() error { return e.Err }

// SweepError aggregates every replicate failure of a keep-going sweep —
// exactly one entry per failed replicate index, in replicate order
// regardless of scheduling, cancellation timing, or retries.
type SweepError struct {
	// Replicates is the sweep size; len(Failures) of them failed.
	Replicates int
	Failures   []*ReplicateError
}

func (e *SweepError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: %d of %d replicates failed", len(e.Failures), e.Replicates)
	for i, f := range e.Failures {
		if i == 3 && len(e.Failures) > 4 {
			fmt.Fprintf(&b, "; and %d more", len(e.Failures)-i)
			break
		}
		fmt.Fprintf(&b, "; replicate %d: %v", f.Rep, f.Err)
	}
	return b.String()
}

// Unwrap exposes the individual failures to errors.Is/As.
func (e *SweepError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f
	}
	return out
}

// TruncatedError surfaces a budget-truncated sweep through APIs whose
// ([]T, error) signature has no SweepStatus channel. Err carries the sweep's
// replicate failures when there were any (a *SweepError under keep-going).
type TruncatedError struct {
	Status SweepStatus
	Err    error
}

func (e *TruncatedError) Error() string {
	msg := fmt.Sprintf("scenario: sweep truncated (%s); dropped replicates %s",
		e.Status.Reason, e.Status.DroppedRange())
	if e.Err != nil {
		msg += "; " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the underlying sweep failures to errors.Is/As.
func (e *TruncatedError) Unwrap() error { return e.Err }

// RunSweep fans n replicates across a worker pool and merges their results
// in replicate order. Each call of fn must be self-contained (own machine,
// own RNG root — see ReplicateSeed), which every Spec-built instance is;
// under that contract the merged slice, the error, and the error *ordering*
// are all byte-identical at any parallelism — including a sweep that is
// killed, resumed from its journal at a different worker count, and merged.
//
// The runner is hardened for production sweeps:
//
//   - ctx cancellation stops the sweep promptly: running replicates see
//     their context cancelled, not-yet-started ones are not started, and
//     both report context.Canceled;
//   - Options.Timeout bounds each replicate; a replicate that ignores its
//     context is abandoned and reported as context.DeadlineExceeded;
//   - a panicking replicate becomes a *ReplicateError carrying the stack
//     trace instead of crashing the process;
//   - Transient failures retry up to Options.MaxRetries times with seeded
//     exponential backoff (RetryDelay), so retry schedules reproduce;
//   - Options.Journal checkpoints completed replicates; Options.Resume
//     merges them back instead of re-running;
//   - Options.Budget stops scheduling when exhausted and reports the
//     dropped replicates in SweepStatus instead of failing;
//   - a replicate contributes at most one entry to the failures, keyed by
//     replicate index, whatever combination of timeout, retry and
//     cancellation it dies under.
//
// The error is nil, or the first failure in replicate order, or (with
// KeepGoing) a *SweepError listing every failure in replicate order. The
// merged slice always comes back, including partial sweeps.
func RunSweep[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, rep int) (T, error)) ([]T, SweepStatus, error) {
	var status SweepStatus
	if n <= 0 {
		return nil, status, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	errs := make([]*ReplicateError, n)
	skip := make([]bool, n)

	// Slot restriction: replicates outside the set are out of scope for this
	// run — skipped before resume merging, budgets, and scheduling alike.
	excluded := 0
	if opts.Slots != nil {
		inSet := make(map[int]bool, len(opts.Slots))
		for _, s := range opts.Slots {
			if s >= 0 && s < n {
				inSet[s] = true
			}
		}
		for rep := 0; rep < n; rep++ {
			if !inSet[rep] {
				skip[rep] = true
				excluded++
			}
		}
	}

	// completed backs the OnProgress event counter; progress is
	// observation-only and never read by the sweep itself.
	var completed atomic.Int64
	notify := func(rep int, resumed bool) {
		if opts.OnProgress == nil {
			return
		}
		opts.OnProgress(ProgressEvent{
			Rep:       rep,
			Resumed:   resumed,
			Completed: int(completed.Add(1)),
			Total:     n,
		})
	}

	if opts.Journal != nil && opts.Resume {
		reps, results := opts.Journal.Completed()
		for _, rep := range reps {
			if rep >= n || skip[rep] {
				continue
			}
			var v T
			if err := json.Unmarshal(results[rep], &v); err != nil {
				return nil, status, fmt.Errorf("scenario: journal %s: replicate %d record does not decode into %T: %w",
					opts.Journal.Path(), rep, v, err)
			}
			out[rep] = v
			skip[rep] = true
			status.Resumed++
			notify(rep, true)
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pending := n - status.Resumed - excluded
	if workers > pending {
		workers = pending
	}
	if pending == 0 {
		return out, status, nil
	}

	//lint:allow wallclock wall-clock sweep budget; scheduling only, never read by simulated code
	start := time.Now()
	ran := 0 // replicates dispatched this run (owned by the scheduling goroutine)
	exhausted := func() (string, bool) {
		b := opts.Budget
		if b.Replicates > 0 && ran >= b.Replicates {
			return fmt.Sprintf("replicate budget %d exhausted", b.Replicates), true
		}
		//lint:allow wallclock wall-clock sweep budget; scheduling only, never read by simulated code
		if b.WallClock > 0 && time.Since(start) >= b.WallClock {
			return fmt.Sprintf("wall-clock budget %v exhausted", b.WallClock), true
		}
		return "", false
	}
	// truncate marks every not-yet-scheduled replicate from rep on as
	// dropped (journal-resumed and already-dispatched ones excluded) and
	// journals the truncation marker.
	truncate := func(rep int, reason string) {
		status.Truncated = true
		status.Reason = reason
		for ; rep < n; rep++ {
			if !skip[rep] {
				status.Dropped = append(status.Dropped, rep)
			}
		}
		if opts.Journal != nil {
			if err := opts.Journal.Truncation(status.Dropped, reason); err != nil {
				// The marker is advisory; the dropped range still reaches the
				// caller through the status.
				status.Reason += fmt.Sprintf(" (journal marker failed: %v)", err)
			}
		}
	}

	var retries atomic.Int64
	// attemptOne executes one guarded attempt of a replicate: per-attempt
	// timeout, panic recovery, abandonment of attempts that ignore their
	// context.
	attemptOne := func(rep int) (T, *ReplicateError) {
		repCtx, cancel := ctx, context.CancelFunc(func() {})
		if opts.Timeout > 0 {
			repCtx, cancel = context.WithTimeout(ctx, opts.Timeout)
		}
		defer cancel()
		type outcome struct {
			val T
			err *ReplicateError
		}
		// The buffered channel lets an abandoned (timed-out) attempt finish
		// its send and exit without anyone receiving.
		done := make(chan outcome, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- outcome{err: &ReplicateError{
						Rep:      rep,
						Err:      fmt.Errorf("panic: %v", r),
						Panicked: true,
						Stack:    string(debug.Stack()),
					}}
				}
			}()
			v, err := fn(repCtx, rep)
			if err != nil {
				done <- outcome{err: &ReplicateError{Rep: rep, Err: err}}
				return
			}
			done <- outcome{val: v}
		}()
		select {
		case o := <-done:
			return o.val, o.err
		case <-repCtx.Done():
			var zero T
			return zero, &ReplicateError{Rep: rep, Err: repCtx.Err()}
		}
	}
	// runOne drives a replicate to its final outcome — retrying transient
	// failures — and records exactly one result or one error in the
	// replicate's own slot. Slot-per-replicate is what makes double counting
	// structurally impossible, whatever interleaving of timeout, retry and
	// cancellation the replicate dies under.
	runOne := func(rep int) {
		if err := ctx.Err(); err != nil {
			errs[rep] = &ReplicateError{Rep: rep, Err: err}
			return
		}
		var last *ReplicateError
		for attempt := 1; ; attempt++ {
			val, rerr := attemptOne(rep)
			if rerr == nil {
				out[rep] = val
				if opts.Journal != nil || opts.OnResult != nil {
					raw, err := json.Marshal(val)
					if err == nil && opts.Journal != nil {
						if jerr := opts.Journal.Record(rep, raw, attempt-1); jerr != nil {
							err = fmt.Errorf("journaling result: %w", jerr)
						}
					}
					if err == nil && opts.OnResult != nil {
						// Delivery failure fails the replicate: a result
						// that never reached its consumer is as lost as one
						// never computed. OnResult errors marked Transient
						// re-enter the retry loop like any other failure.
						err = opts.OnResult(rep, raw)
					}
					if err != nil {
						// A checkpoint that cannot be written is a real
						// failure: resuming would silently re-run this
						// replicate at best, corrupt the journal at worst.
						rerr = &ReplicateError{Rep: rep, Err: err, Attempts: attempt}
						last = rerr
						if attempt > opts.MaxRetries || !Transient(err) || ctx.Err() != nil {
							break
						}
						retries.Add(1)
						if !sleepBackoff(ctx, RetryDelay(opts, rep, attempt)) {
							break
						}
						continue
					}
				}
				notify(rep, false)
				return
			}
			rerr.Attempts = attempt
			last = rerr
			if attempt > opts.MaxRetries || !Transient(rerr.Err) || ctx.Err() != nil {
				break
			}
			retries.Add(1)
			if !sleepBackoff(ctx, RetryDelay(opts, rep, attempt)) {
				break // cancelled mid-backoff; the attempt's own error stands
			}
		}
		errs[rep] = last
	}

	if workers == 1 {
		for rep := 0; rep < n; rep++ {
			if skip[rep] {
				continue
			}
			if ctx.Err() == nil {
				if reason, over := exhausted(); over {
					truncate(rep, reason)
					break
				}
			}
			ran++
			runOne(rep)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := range idx {
					runOne(rep)
				}
			}()
		}
	feed:
		for rep := 0; rep < n; rep++ {
			if skip[rep] {
				continue
			}
			if ctx.Err() == nil {
				if reason, over := exhausted(); over {
					truncate(rep, reason)
					break feed
				}
			}
			select {
			case idx <- rep:
				ran++
			case <-ctx.Done():
				// Mark the unscheduled tail cancelled without starting it.
				for ; rep < n; rep++ {
					if skip[rep] {
						continue
					}
					errs[rep] = &ReplicateError{Rep: rep, Err: ctx.Err()}
				}
				break feed
			}
		}
		close(idx)
		wg.Wait()
	}
	status.Retries = int(retries.Load())

	var failures []*ReplicateError
	for _, e := range errs { // errs is replicate-ordered; scheduling can't reorder it
		if e != nil {
			failures = append(failures, e)
		}
	}
	if len(failures) == 0 {
		return out, status, nil
	}
	if opts.KeepGoing {
		return out, status, &SweepError{Replicates: n, Failures: failures}
	}
	return out, status, failures[0]
}

// sleepBackoff waits d of host wall-clock time (never simulated time),
// returning false if ctx is cancelled first.
func sleepBackoff(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	//lint:allow wallclock retry backoff is host wall-clock by design; never folded into simulated ticks
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// RunReplicatesSweep runs a registry experiment's sweep under the experiment
// Config's runner settings — worker pool, per-replicate timeout, keep-going,
// retries, budget — and, when the Config journals, checkpoints the sweep to
// a per-sweep journal file for resume. Sweep-shaped experiments use it to
// degrade gracefully: the status names what was resumed, retried or dropped.
func RunReplicatesSweep[T any](cfg Config, n int, fn func(rep int) (T, error)) ([]T, SweepStatus, error) {
	opts := cfg.RunOptions()
	j, err := openSweepJournal(cfg, n)
	if err != nil {
		return nil, SweepStatus{}, err
	}
	if j != nil {
		defer j.Close()
		opts.Journal = j
		opts.Resume = cfg.Resume
	}
	return RunSweep(cfg.Context(), n, opts,
		func(_ context.Context, rep int) (T, error) { return fn(rep) })
}

// RunReplicates is RunReplicatesSweep behind the classic ([]T, error)
// signature, used by experiments whose aggregation needs the full sweep: a
// budget-truncated sweep comes back as a loud *TruncatedError — partial
// aggregates are never passed off as complete.
func RunReplicates[T any](cfg Config, n int, fn func(rep int) (T, error)) ([]T, error) {
	out, status, err := RunReplicatesSweep(cfg, n, fn)
	if status.Truncated {
		return out, &TruncatedError{Status: status, Err: err}
	}
	if err != nil && !cfg.KeepGoing {
		return nil, err
	}
	return out, err
}
