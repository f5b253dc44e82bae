package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span is one timed interval of a traced run: a call from the benchmark
// into one layer of the program.
type Span struct {
	ID     int
	Parent int // 0 for a root span
	Name   string
	// Key identifies the unit of work the span belongs to: a replicate
	// index, a job ID or a lease ID.
	Key   string
	Start time.Duration // since the recorder's epoch
	End   time.Duration
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is the
// untraced mode: Begin returns 0 and End does nothing. Safe for concurrent
// use.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty trace whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its ID.
func (r *Recorder) Begin(name, key string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Key: key, Start: now, End: -1})
	return id
}

// End closes the span with the given ID.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// SetKey names the unit of work of an open span once it is known.
func (r *Recorder) SetKey(id int, key string) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Key = key
	r.mu.Unlock()
}

// Spans returns the closed spans in opening order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// SelfTimes sums, per span name, each span's duration minus the part of its
// interval that its children cover. Overlapping children count once.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// WriteChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), loadable in chrome://tracing or Perfetto.
func WriteChrome(path string, spans []Span) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	// Each root span and its descendants share a track, so concurrent work
	// (client, worker, heartbeat) lands on separate rows.
	root := map[int]int{}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid := s.ID
		if s.Parent != 0 {
			tid = root[s.Parent]
		}
		root[s.ID] = tid
		args := map[string]string{}
		if s.Key != "" {
			args["id"] = s.Key
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: tid, Args: args,
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.Dur()) / float64(time.Microsecond),
		})
	}
	raw, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

type spanKey struct{}

// withSpan makes id the parent of spans opened under ctx, including the
// HTTP spans of requests made with it.
func withSpan(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanOf(ctx context.Context) int {
	id, _ := ctx.Value(spanKey{}).(int)
	return id
}

// leaseEvent is one lease-plane exchange seen on the wire: a granted claim
// or an acknowledged upload.
type leaseEvent struct {
	at        time.Time
	lease     string
	duplicate bool // uploads: the coordinator already had the slot
}

// timingTransport is the benchmark's http.RoundTripper, installed on both
// the sweepd client and the workerd worker. It always records lease grants
// and upload acknowledgements (the claim → upload latency is an end-to-end
// figure) and, when traced, opens one span per request named after its
// endpoint.
type timingTransport struct {
	base http.RoundTripper
	rec  *Recorder

	mu      sync.Mutex
	claims  []leaseEvent
	uploads []leaseEvent
	// refused counts 429/503 answers and transport failures, each of which
	// the worker's client retries.
	refused int
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route, pathID := routeOf(req.Method, req.URL.Path)
	key := pathID
	if t.rec != nil && route == "POST /v1/leases/{id}/results" {
		key, req = uploadKey(req)
	}
	id := t.rec.Begin("http "+route, key, spanOf(req.Context()))
	resp, err := t.base.RoundTrip(req)
	if err != nil || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		t.mu.Lock()
		t.refused++
		t.mu.Unlock()
	}
	if err == nil && resp.StatusCode == http.StatusOK {
		switch route {
		case "POST /v1/leases/claim":
			var grant struct {
				LeaseID string `json:"lease_id"`
			}
			if peekJSON(resp, &grant) {
				t.note(&t.claims, leaseEvent{at: time.Now(), lease: grant.LeaseID})
			}
		case "POST /v1/leases/{id}/results":
			var ack struct {
				Duplicate bool `json:"duplicate"`
			}
			if peekJSON(resp, &ack) {
				t.note(&t.uploads, leaseEvent{at: time.Now(), lease: pathID, duplicate: ack.Duplicate})
			}
		}
	}
	t.rec.End(id)
	return resp, err
}

func (t *timingTransport) note(list *[]leaseEvent, ev leaseEvent) {
	t.mu.Lock()
	*list = append(*list, ev)
	t.mu.Unlock()
}

// leaseLog returns copies of the recorded claims and uploads.
func (t *timingTransport) leaseLog() (claims, uploads []leaseEvent, refused int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]leaseEvent(nil), t.claims...), append([]leaseEvent(nil), t.uploads...), t.refused
}

// peekJSON decodes a response body and puts the bytes back for the caller.
func peekJSON(resp *http.Response, v any) bool {
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return err == nil && json.Unmarshal(raw, v) == nil
}

// uploadKey names an upload span by its job and replicate, read from the
// request body. It returns a copy of the request that carries the bytes
// read, since a RoundTripper must not change the request it was given.
func uploadKey(req *http.Request) (string, *http.Request) {
	if req.Body == nil {
		return "", req
	}
	raw, err := io.ReadAll(req.Body)
	req.Body.Close()
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(raw))
	var body struct {
		JobID     string `json:"job_id"`
		Replicate int    `json:"replicate"`
	}
	if err != nil || json.Unmarshal(raw, &body) != nil {
		return "", out
	}
	return body.JobID + "/" + strconv.Itoa(body.Replicate), out
}

// routeOf maps a request to its API endpoint pattern and the job or lease
// ID in its path.
func routeOf(method, path string) (route, key string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) == 3 && parts[1] == "jobs":
		return method + " /v1/jobs/{id}", parts[2]
	case len(parts) == 4 && parts[1] == "jobs":
		return method + " /v1/jobs/{id}/" + parts[3], parts[2]
	case len(parts) == 4 && parts[1] == "leases":
		return method + " /v1/leases/{id}/" + parts[3], parts[2]
	}
	return method + " " + path, ""
}
