// Package netchaos injects deterministic network faults between HTTP
// clients and servers, for testing the retry, lease-expiry and reassignment
// paths of the distributed sweep plane without flaky timing or real packet
// loss.
//
// Two injection points cover the failure modes that matter:
//
//   - Transport wraps an http.RoundTripper and drops, duplicates or delays
//     individual requests by seeded coin flips — the request-level faults a
//     client's retry loop must absorb. A drop-after fault is the nasty one:
//     the server processed the request, the caller saw an error, and only an
//     idempotent API makes the retry safe.
//   - Proxy is a TCP relay that can be partitioned (new connections refused,
//     live ones severed) and heal again, and can reset connections
//     mid-body after a byte budget — the link-level faults that kill worker
//     heartbeats and force lease reassignment.
//
// All randomness derives from caller-provided seeds through internal/sim, so
// a failing chaos run reproduces exactly; nothing here reads host entropy.
//
//lint:zone host
package netchaos

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/sim"
)

// ErrInjected marks every fault this package injects, so tests and retry
// classifiers can tell injected faults from real ones.
var ErrInjected = fmt.Errorf("netchaos: injected fault")

// Faults declares the seeded request-level fault mix of a Transport. The
// zero value injects nothing — a zero-fault Transport is a transparent
// wrapper, byte for byte.
type Faults struct {
	// Seed roots the fault coin-flip stream. Two Transports with the same
	// Seed and fault mix inject faults at the same request ordinals.
	Seed uint64
	// DropBefore is the probability a request is dropped before reaching
	// the server: the caller sees an error, the server sees nothing.
	DropBefore float64
	// DropAfter is the probability the response is dropped after the server
	// fully processed the request: the caller sees an error, but every
	// server-side effect happened. Retrying is only safe against an
	// idempotent API — which is exactly what this fault exists to prove.
	DropAfter float64
	// Duplicate is the probability a request is delivered twice back to
	// back (the first response is discarded, the second returned) —
	// at-least-once delivery, the other half of the idempotency contract.
	Duplicate float64
	// Latency is added to every request before it is forwarded.
	Latency time.Duration
}

// Transport is a fault-injecting http.RoundTripper. Create with
// NewTransport; safe for concurrent use (draws are serialized, so the fault
// sequence is deterministic in draw order even if arrival order races).
type Transport struct {
	base   http.RoundTripper
	faults Faults

	mu          sync.Mutex
	rng         *sim.Rand
	partitioned bool
	requests    int
	injected    int
}

// NewTransport wraps base (nil means http.DefaultTransport) with the given
// fault mix.
func NewTransport(base http.RoundTripper, faults Faults) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{base: base, faults: faults, rng: sim.NewRand(faults.Seed)}
}

// Partition makes every subsequent round trip fail without reaching the
// server, until Heal. It models the client side of a network partition for
// callers that don't route through a Proxy.
func (t *Transport) Partition() {
	t.mu.Lock()
	t.partitioned = true
	t.mu.Unlock()
}

// Heal ends a Partition.
func (t *Transport) Heal() {
	t.mu.Lock()
	t.partitioned = false
	t.mu.Unlock()
}

// Injected reports how many faults the transport has injected so far.
func (t *Transport) Injected() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.injected
}

// plan is one request's drawn fault decisions.
type plan struct {
	partitioned bool
	dropBefore  bool
	dropAfter   bool
	duplicate   bool
}

// draw advances the seeded fault stream by exactly three coins per request,
// so the fault schedule depends only on (Seed, request ordinal).
func (t *Transport) draw() plan {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	p := plan{
		partitioned: t.partitioned,
		dropBefore:  t.rng.Bool(t.faults.DropBefore),
		dropAfter:   t.rng.Bool(t.faults.DropAfter),
		duplicate:   t.rng.Bool(t.faults.Duplicate),
	}
	if p.partitioned || p.dropBefore || p.dropAfter || p.duplicate {
		t.injected++
	}
	return p
}

// RoundTrip implements http.RoundTripper with the seeded fault mix.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.draw()
	if p.partitioned {
		return nil, fmt.Errorf("%w: partitioned: %s %s never sent", ErrInjected, req.Method, req.URL.Path)
	}
	if t.faults.Latency > 0 {
		timer := time.NewTimer(t.faults.Latency)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	if p.dropBefore {
		return nil, fmt.Errorf("%w: request dropped: %s %s never sent", ErrInjected, req.Method, req.URL.Path)
	}
	if p.duplicate {
		// Deliver once, discard the response, deliver again. Requests built
		// by http.NewRequest with a byte or string reader carry GetBody;
		// anything unreplayable degrades to a single delivery.
		if req.Body == nil || req.GetBody != nil {
			first, err := t.base.RoundTrip(cloneRequest(req))
			if err == nil {
				first.Body.Close() //nolint:errcheck // discarded duplicate delivery
			}
			if req.GetBody != nil {
				body, err := req.GetBody()
				if err != nil {
					return nil, fmt.Errorf("netchaos: replaying request body: %w", err)
				}
				req = cloneRequest(req)
				req.Body = body
			}
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if p.dropAfter {
		resp.Body.Close() //nolint:errcheck // the response is being destroyed
		return nil, fmt.Errorf("%w: response dropped: %s %s processed by the server, reply lost",
			ErrInjected, req.Method, req.URL.Path)
	}
	return resp, nil
}

// cloneRequest shallow-copies a request so a duplicated delivery does not
// mutate the caller's.
func cloneRequest(req *http.Request) *http.Request {
	c := req.Clone(req.Context())
	return c
}
