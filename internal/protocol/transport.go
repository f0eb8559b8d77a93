package protocol

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"encoding/binary"
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
	"sync/atomic"
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
// a persistent v3 stream. Every client op rides the stream, so this is the
// call's error: there is no second protocol to fall back to.
var ErrNoStream = errors.New("protocol: transport does not support v3 streams")

// Transport moves bytes between a client and a site gateway. OpenStream dials
// the site's persistent v3 frame stream, which carries every client op; Post
// carries one signed envelope — gateway-to-gateway gossip, and what a
// firewall front relays of it.
type Transport interface {
	Post(ctx context.Context, baseURL string, body []byte) ([]byte, error)
	OpenStream(ctx context.Context, baseURL string) (net.Conn, error)
}

// StreamServer is implemented by handlers that can serve a v3 frame stream
// (the Gateway, the firewall-split Front). In-process transports hand it one
// end of a net.Pipe; a registered handler that lacks it has no stream path,
// and its callers get ErrNoStream.
type StreamServer interface {
	ServeStream(ctx context.Context, conn net.Conn)
}

// InProc is an in-process network: it dispatches envelope POSTs directly to
// registered handlers and v3 streams over net.Pipe, keyed by host name. It
// lets a whole multi-Usite deployment run inside one process and one virtual
// clock, with the same handler code that serves real TLS sockets.
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
// hand back the hijacked connection. A peer that answers anything but 101 (a
// plain proxy) yields ErrNoStream. Cancelling ctx aborts the dial at any
// point of the handshake.
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
	// The upgrade exchange takes no context of its own: dctx ending closes
	// the connection under it, and is then the error.
	stop := context.AfterFunc(dctx, func() { conn.Close() })
	br := bufio.NewReader(conn)
	var resp *http.Response
	_, err = fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		StreamEndpoint, u.Host, StreamUpgradeProto)
	if err == nil {
		resp, err = http.ReadResponse(br, nil)
	}
	if !stop() {
		err = dctx.Err()
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("protocol: v3 upgrade handshake: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		return nil, fmt.Errorf("%w: peer answered HTTP %d to the upgrade", ErrNoStream, resp.StatusCode)
	}
	// Bytes the server sent right after the 101 may sit in the bufio reader;
	// drain it before reading the conn directly.
	peeked, _ := br.Peek(br.Buffered())
	return &bufferedConn{Conn: conn, buf: append([]byte(nil), peeked...)}, nil
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

// Fault is what a ConnFaults hook decides for one frame a wrapped stream end
// is about to write.
type Fault int

const (
	// NoFault writes the frame.
	NoFault Fault = iota
	// LoseFrame severs the connection instead of writing the frame.
	LoseFrame
	// LoseAnswer writes the frame and severs the connection when the peer's
	// next bytes arrive: the frame was acted on, its answer is lost.
	LoseAnswer
)

// ConnFaults is the one connection-fault wrapper the injectors share (Flaky
// on the client end of a stream, the testbed's gateway gate on the server
// end): it tracks the live connections it wrapped so Sever can cut them, and
// asks Decide once for every frame a wrapped end writes. A frame may take
// more than one Write — a server writes a data reply's Data apart from its
// header — so a wrapped end follows the frames' length headers and asks only
// when a Write starts a frame; a LoseFrame there means none of the frame is
// written. The handshake frame, an end's first, always passes: a fault plan
// is about requests and replies.
type ConnFaults struct {
	Decide func() Fault // nil passes everything

	mu    sync.Mutex
	conns map[*killableConn]struct{}
}

// Wrap returns conn under the injector's control.
func (cf *ConnFaults) Wrap(conn net.Conn) net.Conn {
	kc := &killableConn{Conn: conn, cf: cf}
	cf.mu.Lock()
	if cf.conns == nil {
		cf.conns = make(map[*killableConn]struct{})
	}
	cf.conns[kc] = struct{}{}
	cf.mu.Unlock()
	return kc
}

// Sever cuts every live wrapped connection and returns how many it cut.
func (cf *ConnFaults) Sever() int {
	cf.mu.Lock()
	conns := cf.conns
	cf.conns = nil
	cf.mu.Unlock()
	for c := range conns {
		c.Conn.Close()
	}
	return len(conns)
}

// killableConn is one wrapped stream end. Its writes come one at a time,
// under the stream's write lock, and each frame starts a Write with its
// length header whole (sendFrame), so shook and left need no lock and no
// header reassembly.
type killableConn struct {
	net.Conn
	cf        *ConnFaults
	cutOnRead atomic.Bool
	shook     bool // the handshake frame has been started
	left      int  // bytes of the frame being written still to come
}

// Write asks the injector first when p starts a frame past the handshake.
func (c *killableConn) Write(p []byte) (int, error) {
	if c.left == 0 && len(p) >= 4 {
		c.left = 4 + int(binary.BigEndian.Uint32(p))
		if c.shook && c.cf.Decide != nil {
			switch c.cf.Decide() {
			case LoseFrame:
				c.Close()
				return 0, errors.New("fault: frame lost in transit")
			case LoseAnswer:
				c.cutOnRead.Store(true)
			}
		}
		c.shook = true
	}
	c.left -= min(c.left, len(p))
	return c.Conn.Write(p)
}

// Read delivers what arrives, until a LoseAnswer fault is due.
func (c *killableConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.cutOnRead.Load() {
		c.Close()
		return 0, errors.New("fault: answer lost in transit")
	}
	return n, err
}

// Close leaves the injector's live set and closes the connection.
func (c *killableConn) Close() error {
	c.cf.mu.Lock()
	delete(c.cf.conns, c)
	c.cf.mu.Unlock()
	return c.Conn.Close()
}

// Flaky wraps a Transport and injects the two faults of §5.3's "unreliability
// of the underlying communication mechanism" into the streams dialled through
// it: each request frame is lost with probability Drop — half of those before
// the server sees it, the rest after the server has acted on it, with the
// reply. Either way the stream dies under the call, and the client redials
// and replays. KillStreams severs every live stream at once.
type Flaky struct {
	Transport
	Drop float64

	faults ConnFaults
	mu     sync.Mutex
	rng    *rand.Rand
	reqs   int
	lost   int
}

// NewFlaky builds a fault-injecting transport with a deterministic seed.
func NewFlaky(base Transport, drop float64, seed int64) *Flaky {
	f := &Flaky{Transport: base, Drop: drop, rng: rand.New(rand.NewSource(seed))}
	f.faults.Decide = f.decide
	return f
}

func (f *Flaky) decide() Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reqs++
	if f.rng.Float64() >= f.Drop {
		return NoFault
	}
	f.lost++
	if f.rng.Float64() < 0.5 {
		return LoseFrame
	}
	return LoseAnswer
}

// Stats reports the request frames attempted and the ones lost.
func (f *Flaky) Stats() (reqs, lost int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reqs, f.lost
}

// KillStreams severs every live v3 stream opened through this transport and
// returns how many it killed.
func (f *Flaky) KillStreams() int { return f.faults.Sever() }

// OpenStream implements Transport: the base transport's stream, under the
// fault plan.
func (f *Flaky) OpenStream(ctx context.Context, baseURL string) (net.Conn, error) {
	conn, err := f.Transport.OpenStream(ctx, baseURL)
	if err != nil {
		return nil, err
	}
	return f.faults.Wrap(conn), nil
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
	// Every envelope op is idempotent; the empty key (never sent) lets
	// net/http redial when a pooled connection turns out to be dead.
	req.Header["Idempotency-Key"] = nil
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
