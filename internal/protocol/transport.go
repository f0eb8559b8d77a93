package protocol

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"time"
)

// Endpoint is the single https endpoint of a UNICORE site; envelopes go in
// and come out of POST bodies.
const Endpoint = "/unicore"

// StreamEndpoint is the protocol v3 upgrade endpoint: a GET with
// `Upgrade: unicore-v3` hijacks the connection into a persistent multiplexed
// frame stream (one long-lived connection per client/site pair).
const StreamEndpoint = "/unicore/v3"

// StreamUpgradeProto names the v3 stream in the HTTP Upgrade handshake.
const StreamUpgradeProto = "unicore-v3"

// ErrNoStream reports that a transport (or the peer behind it) cannot carry
// a persistent v3 stream; callers fall back to the signed-envelope POST
// path. It is a capability signal, not a failure.
var ErrNoStream = errors.New("protocol: transport does not support v3 streams")

// Transport moves bytes between a client and a site gateway. Post carries
// one signed envelope per call — every cold kind, and the stream's fallback.
// OpenStream dials the site's persistent v3 frame stream; transports (or
// peers) without stream support return ErrNoStream.
type Transport interface {
	Post(ctx context.Context, baseURL string, body []byte) ([]byte, error)
	OpenStream(ctx context.Context, baseURL string) (net.Conn, error)
}

// StreamServer is implemented by handlers that can serve a v3 frame stream
// (the Gateway). In-process transports probe for it: a registered handler
// that lacks it (the firewall-split Front, wrapped test handlers) simply has
// no stream path, and clients fall back to envelopes.
type StreamServer interface {
	ServeStream(ctx context.Context, conn net.Conn)
}

// InProc is an in-process network: it dispatches envelope POSTs directly to
// registered handlers and v3 streams over net.Pipe, keyed by host name. It
// lets a whole multi-Usite deployment run inside one process and one virtual
// clock, with the same handler code that serves real TLS sockets. It still
// implements http.RoundTripper so HTTP-level test shims can wrap it.
type InProc struct {
	mu    sync.RWMutex
	hosts map[string]http.Handler
}

// NewInProc returns an empty in-process network.
func NewInProc() *InProc {
	return &InProc{hosts: make(map[string]http.Handler)}
}

// Register binds a host name (e.g. "gw.fzj.unicore") to a handler. A handler
// that also implements StreamServer is reachable over OpenStream.
func (p *InProc) Register(host string, h http.Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hosts[host] = h
}

func (p *InProc) lookup(host string) (http.Handler, bool) {
	p.mu.RLock()
	h, ok := p.hosts[host]
	p.mu.RUnlock()
	return h, ok
}

// RoundTrip implements http.RoundTripper.
func (p *InProc) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := p.lookup(req.URL.Host)
	if !ok {
		return nil, fmt.Errorf("inproc: no route to host %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// Post implements Transport.
func (p *InProc) Post(ctx context.Context, baseURL string, body []byte) ([]byte, error) {
	return post(ctx, p, baseURL, body)
}

// OpenStream implements Transport: when the registered handler is a
// StreamServer, both stream ends are halves of a net.Pipe.
func (p *InProc) OpenStream(ctx context.Context, baseURL string) (net.Conn, error) {
	h, ok := p.lookup(hostOfURL(baseURL))
	if !ok {
		return nil, fmt.Errorf("inproc: no route to host %q", hostOfURL(baseURL))
	}
	s, ok := h.(StreamServer)
	if !ok {
		return nil, ErrNoStream
	}
	client, server := net.Pipe()
	// The stream outlives the dial call; only the conn's own lifetime bounds
	// the server side.
	go s.ServeStream(context.WithoutCancel(ctx), server)
	return client, nil
}

// hostOfURL extracts the host (with port, if any) from a base URL.
func hostOfURL(baseURL string) string {
	if u, err := url.Parse(baseURL); err == nil && u.Host != "" {
		return u.Host
	}
	return strings.TrimPrefix(strings.TrimPrefix(baseURL, "https://"), "http://")
}

// HTTPShim adapts a plain http.RoundTripper — a test double injecting
// failures at the HTTP layer — to the Transport interface. It has no stream
// path: OpenStream reports ErrNoStream and callers stay on the POST path,
// which is exactly where such shims want the traffic.
type HTTPShim struct{ RT http.RoundTripper }

// OverHTTP wraps an http.RoundTripper as a POST-only Transport.
func OverHTTP(rt http.RoundTripper) *HTTPShim { return &HTTPShim{RT: rt} }

// Post implements Transport.
func (s *HTTPShim) Post(ctx context.Context, baseURL string, body []byte) ([]byte, error) {
	return post(ctx, s.RT, baseURL, body)
}

// OpenStream implements Transport.
func (s *HTTPShim) OpenStream(context.Context, string) (net.Conn, error) {
	return nil, ErrNoStream
}

// HTTPTransport is the real-network Transport: envelopes ride HTTPS POSTs
// through HTTP (an *http.Transport carrying the mutual-TLS config), and v3
// streams are dialed with the same TLS config and switched off HTTP with an
// Upgrade handshake against StreamEndpoint.
type HTTPTransport struct {
	HTTP *http.Transport
	// DialTimeout bounds the TCP+TLS+Upgrade handshake (default 10s).
	DialTimeout time.Duration
}

// NewHTTPTransport wraps an *http.Transport (typically built around
// pki.ClientTLS) as a full Transport.
func NewHTTPTransport(h *http.Transport) *HTTPTransport { return &HTTPTransport{HTTP: h} }

// Post implements Transport.
func (t *HTTPTransport) Post(ctx context.Context, baseURL string, body []byte) ([]byte, error) {
	return post(ctx, t.HTTP, baseURL, body)
}

// OpenStream implements Transport: dial TLS, send the Upgrade handshake,
// hand back the hijacked connection. A peer that answers anything but 101
// (a split front, a plain proxy) yields ErrNoStream.
func (t *HTTPTransport) OpenStream(ctx context.Context, baseURL string) (net.Conn, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("protocol: bad base URL %q: %w", baseURL, err)
	}
	host := u.Host
	if u.Port() == "" {
		if u.Scheme == "http" {
			host = net.JoinHostPort(u.Hostname(), "80")
		} else {
			host = net.JoinHostPort(u.Hostname(), "443")
		}
	}
	timeout := t.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	dctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var conn net.Conn
	d := &net.Dialer{}
	raw, err := d.DialContext(dctx, "tcp", host)
	if err != nil {
		return nil, err
	}
	if u.Scheme == "http" {
		conn = raw
	} else {
		cfg := t.HTTP.TLSClientConfig
		if cfg == nil {
			cfg = &tls.Config{}
		}
		cfg = cfg.Clone()
		if cfg.ServerName == "" {
			cfg.ServerName = u.Hostname()
		}
		tc := tls.Client(raw, cfg)
		if err := tc.HandshakeContext(dctx); err != nil {
			raw.Close()
			return nil, err
		}
		conn = tc
	}
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		StreamEndpoint, u.Host, StreamUpgradeProto)
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(timeout))
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("protocol: v3 upgrade handshake: %w", err)
	}
	resp.Body.Close()
	conn.SetReadDeadline(time.Time{})
	if resp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		return nil, fmt.Errorf("%w: peer answered HTTP %d to the upgrade", ErrNoStream, resp.StatusCode)
	}
	// Bytes the server sent right after the 101 may sit in the bufio reader;
	// drain it before reading the conn directly.
	if n := br.Buffered(); n > 0 {
		peeked, _ := br.Peek(n)
		return &bufferedConn{Conn: conn, buf: append([]byte(nil), peeked...)}, nil
	}
	return &bufferedConn{Conn: conn}, nil
}

// bufferedConn replays bytes buffered during the upgrade handshake before
// reading from the connection proper.
type bufferedConn struct {
	net.Conn
	buf []byte
}

// Read drains the bytes buffered during the handshake, then reads from the
// connection.
func (c *bufferedConn) Read(p []byte) (int, error) {
	if len(c.buf) > 0 {
		n := copy(p, c.buf)
		c.buf = c.buf[n:]
		return n, nil
	}
	return c.Conn.Read(p)
}

// Flaky wraps a Transport and injects failures: each envelope POST is
// dropped with probability Drop (before reaching the server with probability
// 0.5, after — losing the response — otherwise), modelling the
// "unreliability of the underlying communication mechanism" of §5.3.
//
// Streams are a capability switch: with Streams false (the default) the
// flaky network refuses v3 streams outright, pinning traffic to the lossy
// POST path. With Streams true, OpenStream passes through and every live
// stream is tracked so KillStreams can sever them mid-flight — the
// connection-death fault the v3 reconnect logic must absorb.
type Flaky struct {
	Base Transport
	Drop float64
	// Latency is added per successful round trip (0 = none). It burns real
	// time, so keep it tiny in tests.
	Latency time.Duration
	// Streams lets v3 streams through (subject to KillStreams).
	Streams bool

	mu    sync.Mutex
	rng   *rand.Rand
	reqs  int
	lost  int
	kills int
	conns map[*killableConn]struct{}
}

// NewFlaky builds a fault-injecting transport with a deterministic seed.
func NewFlaky(base Transport, drop float64, seed int64) *Flaky {
	return &Flaky{Base: base, Drop: drop, rng: rand.New(rand.NewSource(seed))}
}

// Stats reports attempted and lost envelope round trips.
func (f *Flaky) Stats() (reqs, lost int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reqs, f.lost
}

// KillStreams severs every live v3 stream opened through this transport and
// returns how many it killed.
func (f *Flaky) KillStreams() int {
	f.mu.Lock()
	conns := make([]*killableConn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	f.mu.Lock()
	f.kills += len(conns)
	f.mu.Unlock()
	return len(conns)
}

// Post implements Transport with fault injection.
func (f *Flaky) Post(ctx context.Context, baseURL string, body []byte) ([]byte, error) {
	f.mu.Lock()
	f.reqs++
	drop := f.rng.Float64() < f.Drop
	beforeServer := f.rng.Float64() < 0.5
	if drop {
		f.lost++
	}
	f.mu.Unlock()

	if drop && beforeServer {
		return nil, fmt.Errorf("flaky: request lost in transit")
	}
	if f.Latency > 0 {
		time.Sleep(f.Latency)
	}
	resp, err := f.Base.Post(ctx, baseURL, body)
	if err != nil {
		return nil, err
	}
	if drop {
		// The server processed the request but the reply was lost.
		return nil, fmt.Errorf("flaky: response lost in transit")
	}
	return resp, nil
}

// OpenStream implements Transport (see Streams).
func (f *Flaky) OpenStream(ctx context.Context, baseURL string) (net.Conn, error) {
	if !f.Streams {
		return nil, ErrNoStream
	}
	conn, err := f.Base.OpenStream(ctx, baseURL)
	if err != nil {
		return nil, err
	}
	kc := &killableConn{Conn: conn, f: f}
	f.mu.Lock()
	if f.conns == nil {
		f.conns = make(map[*killableConn]struct{})
	}
	f.conns[kc] = struct{}{}
	f.mu.Unlock()
	return kc, nil
}

// killableConn unregisters itself from the Flaky transport on close.
type killableConn struct {
	net.Conn
	f    *Flaky
	once sync.Once
}

// Close drops the connection from the Flaky transport's live set (once) and
// closes it.
func (c *killableConn) Close() error {
	c.once.Do(func() {
		c.f.mu.Lock()
		delete(c.f.conns, c)
		c.f.mu.Unlock()
	})
	return c.Conn.Close()
}

// post sends an envelope to a site URL over an http.RoundTripper and returns
// the reply envelope bytes. The context rides on the request, so handlers
// that wait server-side (the MsgSubscribe long-poll) observe cancellation.
func post(ctx context.Context, rt http.RoundTripper, baseURL string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+Endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("protocol: HTTP %d: %s", resp.StatusCode, truncate(data, 200))
	}
	return data, nil
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
