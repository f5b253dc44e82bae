package netchaos

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/sim"
)

// ProxyOptions tunes a Proxy. The zero value relays transparently.
type ProxyOptions struct {
	// Seed roots the per-connection fault stream (reset-point jitter).
	Seed uint64
	// ResetAfterBytes, when positive, severs each relayed connection with a
	// hard RST after roughly that many relayed bytes (jittered per
	// connection by Seed into [budget/2, budget]) — the mid-body reset a
	// robust client must treat as a transport error, not a short read.
	ResetAfterBytes int64
	// Latency delays each relayed connection's first byte.
	Latency time.Duration
}

// A Proxy is a partitionable TCP relay: workers dial the proxy, the proxy
// dials the coordinator, and the test severs or heals the link at will. A
// partition kills live connections (heartbeats die mid-flight, exactly like
// a pulled cable) and refuses new ones until Heal.
type Proxy struct {
	target string
	ln     net.Listener
	opts   ProxyOptions

	mu          sync.Mutex
	rng         *sim.Rand
	partitioned bool
	closed      bool
	conns       map[net.Conn]struct{}
	wg          sync.WaitGroup
}

// NewProxy starts a relay on an ephemeral localhost port forwarding to
// target ("127.0.0.1:8356"). Close releases it.
func NewProxy(target string, opts ProxyOptions) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netchaos: listening: %w", err)
	}
	p := &Proxy{
		target: target,
		ln:     ln,
		opts:   opts,
		rng:    sim.NewRand(opts.Seed),
		conns:  map[net.Conn]struct{}{},
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — what clients dial instead of
// the real target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Partition severs the link: every live relayed connection is killed with a
// hard close, and new connections are accepted and immediately dropped
// (connection refused semantics without racing the accept loop) until Heal.
func (p *Proxy) Partition() {
	p.mu.Lock()
	p.partitioned = true
	for c := range p.conns { //lint:allow maporder teardown order is irrelevant; every conn is killed
		hardClose(c)
	}
	p.mu.Unlock()
}

// Heal ends a Partition: new connections relay again. Connections killed by
// the partition stay dead — reconnecting is the client's job.
func (p *Proxy) Heal() {
	p.mu.Lock()
	p.partitioned = false
	p.mu.Unlock()
}

// Close shuts the proxy down and waits for its relay goroutines.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for c := range p.conns { //lint:allow maporder teardown order is irrelevant; every conn is killed
		hardClose(c)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

// acceptLoop accepts and dispatches relayed connections until Close.
func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		if p.closed || p.partitioned {
			p.mu.Unlock()
			hardClose(conn)
			continue
		}
		// Draw this connection's reset budget while holding the lock, so
		// the per-connection fault stream is ordered by accept order.
		var budget int64
		if b := p.opts.ResetAfterBytes; b > 0 {
			budget = b/2 + int64(p.rng.Uint64n(uint64(b-b/2)+1))
		}
		p.conns[conn] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.relay(conn, budget)
	}
}

// forget unregisters a finished connection.
func (p *Proxy) forget(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// relay shuttles bytes between a client connection and a fresh upstream
// connection, enforcing the reset budget across both directions.
func (p *Proxy) relay(client net.Conn, budget int64) {
	defer p.wg.Done()
	defer p.forget(client)
	defer client.Close()
	if p.opts.Latency > 0 {
		time.Sleep(p.opts.Latency)
	}
	upstream, err := net.Dial("tcp", p.target)
	if err != nil {
		hardClose(client)
		return
	}
	p.mu.Lock()
	if p.closed || p.partitioned {
		p.mu.Unlock()
		hardClose(upstream)
		hardClose(client)
		return
	}
	p.conns[upstream] = struct{}{}
	p.mu.Unlock()
	defer p.forget(upstream)
	defer upstream.Close()

	// The shared budget counts bytes relayed in both directions; crossing it
	// RSTs both sides mid-stream.
	var counter *byteBudget
	if budget > 0 {
		counter = &byteBudget{left: budget, kill: func() {
			hardClose(client)
			hardClose(upstream)
		}}
	}
	done := make(chan struct{}, 2)
	pipe := func(dst, src net.Conn) {
		buf := make([]byte, 4096)
		for {
			n, rerr := src.Read(buf)
			if n > 0 {
				if counter != nil && counter.spend(int64(n)) {
					break
				}
				if _, werr := dst.Write(buf[:n]); werr != nil {
					break
				}
			}
			if rerr != nil {
				break
			}
		}
		// Half-close so the peer's reads drain; hard faults use hardClose.
		if tc, ok := dst.(*net.TCPConn); ok {
			tc.CloseWrite() //nolint:errcheck // best-effort half-close
		}
		done <- struct{}{}
	}
	go pipe(upstream, client)
	pipe(client, upstream)
	<-done
}

// byteBudget is the shared reset budget of one relayed connection pair.
type byteBudget struct {
	mu   sync.Mutex
	left int64
	kill func()
	dead bool
}

// spend consumes n bytes of budget, firing the kill exactly once when it
// crosses zero; it reports whether the connection is dead.
func (b *byteBudget) spend(n int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead {
		return true
	}
	b.left -= n
	if b.left < 0 {
		b.dead = true
		b.kill()
		return true
	}
	return false
}

// hardClose kills a TCP connection with an RST (linger 0) instead of a
// graceful FIN, so the peer sees a connection reset — the shape of a
// partition, not an orderly shutdown.
func hardClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0) //nolint:errcheck // best-effort fault injection
	}
	c.Close() //nolint:errcheck // already tearing down
}
