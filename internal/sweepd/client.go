package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/scenario"
)

// A StatusError is a non-2xx API response, carrying the HTTP code so
// callers can branch on admission outcomes (429 quota/queue-full, 503
// draining) without string matching.
type StatusError struct {
	Code    int
	Message string
	// RetryAfter is the server's Retry-After hint, when present.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("sweepd: server returned %d: %s", e.Code, e.Message)
}

// A Client talks to one anvilserved instance.
type Client struct {
	// Base is the server URL ("http://127.0.0.1:8080").
	Base string
	// APIKey identifies the caller for quota accounting; empty means
	// "anonymous".
	APIKey string
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries, when positive, re-issues requests that failed transiently
	// — transport errors (connection refused, resets, lost responses) and
	// 429/503 responses — up to this many extra times. Backoff is seeded
	// exponential jitter (scenario.RetryDelay rooted at RetrySeed), raised
	// to the server's Retry-After hint when one is present, and always
	// bounded by the request context: a context that expires mid-backoff
	// ends the retrying immediately. Zero keeps the old single-shot
	// behaviour — interactive callers usually want errors loudly, daemons
	// set this.
	MaxRetries int
	// RetryBase is the first retry's base backoff; zero means
	// scenario.DefaultRetryBackoff.
	RetryBase time.Duration
	// RetrySeed roots the backoff jitter stream, so a fleet of workers
	// seeded differently never thunders in phase and a replayed run backs
	// off identically.
	RetrySeed uint64
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// errClientTransport tags request failures that happened below HTTP —
// dialing, writing, reading the response — where the server may or may not
// have processed the request. They are the retryable class (the API is
// idempotent), as opposed to decode errors, which a retry cannot fix.
var errClientTransport = errors.New("sweepd: transport error")

// retryDelay classifies err after a failed attempt (1-based) and returns
// how long to back off before retrying, or ok=false for errors retrying
// cannot help.
func (c *Client) retryDelay(err error, attempt int) (time.Duration, bool) {
	d := scenario.RetryDelay(scenario.Options{RetryBackoff: c.RetryBase, BaseSeed: c.RetrySeed}, 0, attempt)
	var se *StatusError
	switch {
	case errors.As(err, &se):
		if se.Code != http.StatusTooManyRequests && se.Code != http.StatusServiceUnavailable {
			return 0, false
		}
		if se.RetryAfter > d {
			d = se.RetryAfter
		}
		return d, true
	case errors.Is(err, errClientTransport):
		return d, true
	}
	return 0, false
}

// retry runs one request function under the client's retry policy.
func (c *Client) retry(ctx context.Context, fn func() error) error {
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil || attempt > c.MaxRetries || ctx.Err() != nil {
			return err
		}
		d, ok := c.retryDelay(err, attempt)
		if !ok {
			return err
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return err
		case <-t.C:
		}
	}
}

// do issues one request under the retry policy and decodes a JSON body into
// out (when non-nil). Non-2xx responses come back as *StatusError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	return c.retry(ctx, func() error {
		_, _, raw, err := c.doOnce(ctx, method, path, body)
		if err != nil || out == nil || len(raw) == 0 {
			return err
		}
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("sweepd: decoding %s %s response: %w", method, path, err)
		}
		return nil
	})
}

// doOnce is a single request attempt, returning a 2xx response's status
// code, headers and body. Non-2xx responses come back as *StatusError.
func (c *Client) doOnce(ctx context.Context, method, path string, body any) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("sweepd: encoding request: %w", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.Base, "/")+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.APIKey != "" {
		req.Header.Set("X-API-Key", c.APIKey)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%w: %w", errClientTransport, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%w: reading response: %w", errClientTransport, err)
	}
	if resp.StatusCode/100 != 2 {
		return 0, nil, nil, statusError(resp, raw)
	}
	return resp.StatusCode, resp.Header, raw, nil
}

// ClaimLease asks the coordinator for a slot lease. (nil, nil) means no
// shardable work is available right now — poll again later.
func (c *Client) ClaimLease(ctx context.Context, worker string, maxSlots int) (*ClaimResponse, error) {
	var grant ClaimResponse
	if err := c.do(ctx, http.MethodPost, "/v1/leases/claim",
		ClaimRequest{Worker: worker, MaxSlots: maxSlots}, &grant); err != nil {
		return nil, err
	}
	if grant.LeaseID == "" { // 204: nothing to do
		return nil, nil
	}
	return &grant, nil
}

// RenewLease heartbeats a lease, returning the refreshed TTL. A 410 comes
// back as a *StatusError with Code http.StatusGone: the lease expired and
// its slots belong to someone else now.
func (c *Client) RenewLease(ctx context.Context, id string) (time.Duration, error) {
	var r RenewResponse
	if err := c.do(ctx, http.MethodPost, "/v1/leases/"+id+"/renew", struct{}{}, &r); err != nil {
		return 0, err
	}
	return time.Duration(r.TTLMS) * time.Millisecond, nil
}

// UploadResult delivers one computed replicate. Safe to repeat: a slot that
// already has a result acknowledges as a duplicate.
func (c *Client) UploadResult(ctx context.Context, leaseID string, req UploadRequest) (UploadResponse, error) {
	var ack UploadResponse
	err := c.do(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/results", req, &ack)
	return ack, err
}

// ReleaseLease gives a lease back explicitly. Idempotent; releasing an
// already-expired lease is fine.
func (c *Client) ReleaseLease(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/leases/"+id+"/release", struct{}{}, nil)
}

// IsGone reports whether err is the server saying 410: the lease or the
// job's distribution phase no longer exists, so the worker should abandon
// the lease and claim afresh.
func IsGone(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusGone
}

// statusError builds the typed error for a non-2xx response.
func statusError(resp *http.Response, raw []byte) *StatusError {
	msg := strings.TrimSpace(string(raw))
	var body apiError
	if err := json.Unmarshal(raw, &body); err == nil && body.Error != "" {
		msg = body.Error
	}
	e := &StatusError{Code: resp.StatusCode, Message: msg}
	if d, ok := RetryAfter(resp.Header); ok {
		e.RetryAfter = d
	}
	return e
}

// Submit submits a job spec and returns the acknowledged (or cached, or
// deduplicated) job status.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Quota fetches the caller's charged usage.
func (c *Client) Quota(ctx context.Context) (QuotaStatus, error) {
	var q QuotaStatus
	err := c.do(ctx, http.MethodGet, "/v1/quota", nil, &q)
	return q, err
}

// Result fetches a finished job's artifact bytes, retrying transient
// failures under the client's retry policy. A job that is not ready — still
// queued/running, or re-queued for recompute after a corrupt artifact read —
// returns (nil, status, nil); a failed job returns a *StatusError.
func (c *Client) Result(ctx context.Context, id string) (data []byte, st JobStatus, err error) {
	err = c.retry(ctx, func() error {
		code, h, raw, err := c.doOnce(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
		switch {
		case err != nil:
			return err
		case code == http.StatusAccepted:
			if err := json.Unmarshal(raw, &st); err != nil {
				return fmt.Errorf("sweepd: decoding pending result status: %w", err)
			}
			return nil
		}
		data, st = raw, JobStatus{ID: id, State: JobState(h.Get("X-Job-State"))}
		return nil
	})
	return data, st, err
}

// DefaultPoll is the Wait polling interval when none is given.
const DefaultPoll = 50 * time.Millisecond

// Wait polls a job until it reaches a terminal state (or ctx expires).
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = DefaultPoll
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-tick.C:
		}
	}
}

// FetchResult waits for a job and returns its artifact bytes, riding
// through corrupt-artifact recomputes (each 202 re-enters the wait loop).
func (c *Client) FetchResult(ctx context.Context, id string, poll time.Duration) ([]byte, error) {
	for {
		st, err := c.Wait(ctx, id, poll)
		if err != nil {
			return nil, err
		}
		if st.State == StateFailed {
			return nil, fmt.Errorf("sweepd: job %s failed: %s", id, st.Error)
		}
		data, _, err := c.Result(ctx, id)
		if err != nil {
			return nil, err
		}
		if data != nil {
			return data, nil
		}
		// Re-queued for recompute; wait again.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}
