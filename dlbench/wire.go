package main

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hostdb"
	"repro/internal/obs"
	"repro/internal/rpc"
)

// meter collects the per-layer numbers of a traced run: timings of the
// benchmark's own calls into public functions and of the wrapped RPC
// connections and agents, plus exact call and byte counts. It records only
// while on is set (the timed window).
type meter struct {
	on    atomic.Bool
	spans *spanRec

	rpcCalls  atomic.Int64 // DLFM agent requests handled
	accCalls  atomic.Int64 // acceptor agent requests handled
	wireBytes atomic.Int64 // bytes both ways on every wrapped connection

	mu    sync.Mutex
	hists map[string]*samples
}

func newMeter() *meter {
	return &meter{spans: newSpanRec(), hists: make(map[string]*samples)}
}

// hist returns the named sample set, creating it on first use.
func (m *meter) hist(key string) *samples {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hists[key]
	if h == nil {
		h = &samples{}
		m.hists[key] = h
	}
	return h
}

// observe records one timed call under key and, for a traced txn, its span.
func (m *meter) observe(key string, txn int64, layer, op string, start, end time.Time) {
	if m == nil || !m.on.Load() {
		return
	}
	m.hist(key).add(end.Sub(start))
	m.spans.add(txn, layer, op, start, end)
}

// q returns a quantile of the named sample set (0 when never observed).
func (m *meter) q(key string, q float64) time.Duration {
	m.mu.Lock()
	h := m.hists[key]
	m.mu.Unlock()
	if h == nil {
		return 0
	}
	return h.q(q)
}

// connPair is shared by the two ends of one wrapped connection: the agent
// wrapper leaves the handle time and txn of the request it just served,
// and the host-side conn wrapper reads them when the reply arrives. A DLFM
// connection belongs to one session, which issues one call at a time; the
// host shares each acceptor connection between its sessions, so there two
// overlapping calls are timed as one.
type connPair struct {
	mu      sync.Mutex
	pending bool
	sent    time.Time
	handle  time.Duration
	txn     int64
	op      string
}

// meteredConn is the host side of a wrapped connection. A round trip runs
// from the first request write while no call is pending to the first reply
// byte read after it.
type meteredConn struct {
	net.Conn
	p *connPair
	m *meter
}

func (c *meteredConn) Write(b []byte) (int, error) {
	c.p.mu.Lock()
	if !c.p.pending {
		c.p.pending = true
		c.p.sent = time.Now()
	}
	c.p.mu.Unlock()
	n, err := c.Conn.Write(b)
	if c.m.on.Load() {
		c.m.wireBytes.Add(int64(n))
	}
	return n, err
}

func (c *meteredConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n <= 0 {
		return n, err
	}
	now := time.Now()
	c.p.mu.Lock()
	pending, sent, handle, txn, op := c.p.pending, c.p.sent, c.p.handle, c.p.txn, c.p.op
	c.p.pending = false
	c.p.mu.Unlock()
	if c.m.on.Load() {
		c.m.wireBytes.Add(int64(n))
		if pending {
			c.m.observe("rpc.roundtrip", txn, "rpc", op, sent, now)
			c.m.hist("rpc.transport").add(now.Sub(sent) - handle)
		}
	}
	return n, err
}

// meteredAgent wraps a DLFM or acceptor agent. It keeps rpc.TracedAgent,
// so the program's own span propagation is unchanged.
type meteredAgent struct {
	inner rpc.Agent
	p     *connPair
	m     *meter
	layer string // "core" or "acceptor"
}

func (a *meteredAgent) Handle(req any) rpc.Response { return a.HandleCtx(obs.SpanCtx{}, req) }

func (a *meteredAgent) HandleCtx(ctx obs.SpanCtx, req any) rpc.Response {
	start := time.Now()
	var resp rpc.Response
	if ta, ok := a.inner.(rpc.TracedAgent); ok {
		resp = ta.HandleCtx(ctx, req)
	} else {
		resp = a.inner.Handle(req)
	}
	end := time.Now()
	op, txn := rpc.Name(req), rpc.TxnOf(req)
	a.p.mu.Lock()
	a.p.handle, a.p.txn, a.p.op = end.Sub(start), txn, op
	a.p.mu.Unlock()
	if a.m.on.Load() {
		key := "acceptor"
		if a.layer == "core" {
			key = "core." + op
			a.m.rpcCalls.Add(1)
		} else {
			a.m.accCalls.Add(1)
		}
		a.m.observe(key, txn, a.layer, op, start, end)
	}
	return resp
}

func (a *meteredAgent) Close() { a.inner.Close() }

// errDown is the dial error while an endpoint is halted.
var errDown = errors.New("dlbench: server is down")

// endpoint stands in for one server's listener: every dial is a fresh
// in-process pipe served by a new agent. With a meter both ends are
// wrapped. halt severs every live connection, so a crash can follow.
type endpoint struct {
	newAgent func() rpc.Agent
	m        *meter // nil: no wrapping
	layer    string

	mu    sync.Mutex
	down  bool
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func newEndpoint(newAgent func() rpc.Agent, m *meter, layer string) *endpoint {
	return &endpoint{newAgent: newAgent, m: m, layer: layer, conns: make(map[net.Conn]struct{})}
}

func (e *endpoint) dial() (io.ReadWriteCloser, error) {
	e.mu.Lock()
	if e.down {
		e.mu.Unlock()
		return nil, errDown
	}
	hostSide, srvSide := net.Pipe()
	e.conns[srvSide] = struct{}{}
	e.wg.Add(1)
	e.mu.Unlock()
	agent := e.newAgent()
	var conn io.ReadWriteCloser = hostSide
	if e.m != nil {
		p := &connPair{}
		agent = &meteredAgent{inner: agent, p: p, m: e.m, layer: e.layer}
		conn = &meteredConn{Conn: hostSide, p: p, m: e.m}
	}
	go func() {
		defer e.wg.Done()
		rpc.ServeConn(srvSide, agent)
		e.mu.Lock()
		delete(e.conns, srvSide)
		e.mu.Unlock()
	}()
	return conn, nil
}

// dialer is the host's view of the endpoint.
func (e *endpoint) dialer() hostdb.Dialer {
	return func() (*rpc.Client, error) { return rpc.NewClientDialer(e.dial) }
}

// halt refuses new dials, severs live connections and waits until their
// agents have closed.
func (e *endpoint) halt() {
	e.mu.Lock()
	e.down = true
	for c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

func (e *endpoint) reopen() {
	e.mu.Lock()
	e.down = false
	e.mu.Unlock()
}

// lazyCaller is a DLFM learner's connection to one acceptor: dialled on
// first use and redialled after a transport error.
type lazyCaller struct {
	ep *endpoint

	mu     sync.Mutex
	client *rpc.Client
}

func (c *lazyCaller) Call(req any) (rpc.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.client == nil {
		cl, err := rpc.NewClientDialer(c.ep.dial)
		if err != nil {
			return rpc.Response{}, err
		}
		c.client = cl
	}
	resp, err := c.client.Call(req)
	if err != nil {
		c.client.Close()
		c.client = nil
	}
	return resp, err
}

func (c *lazyCaller) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.client != nil {
		c.client.Close()
		c.client = nil
	}
}
