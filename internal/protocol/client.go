package protocol

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"unicore/internal/core"
	"unicore/internal/pki"
	"unicore/internal/telemetry"
)

// Registry maps Usites to their gateway base URLs — "the different servers
// are connected so that (parts of) UNICORE jobs, data, and control
// information can be exchanged" (paper §4.3). It is safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	sites map[core.Usite]string
}

// NewRegistry builds a registry from site→URL pairs.
func NewRegistry() *Registry {
	return &Registry{sites: make(map[core.Usite]string)}
}

// Add registers (or replaces) a site's gateway URL.
func (r *Registry) Add(usite core.Usite, baseURL string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sites[usite] = baseURL
}

// Lookup returns a site's gateway URL.
func (r *Registry) Lookup(usite core.Usite) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	url, ok := r.sites[usite]
	return url, ok
}

// Sites returns all registered Usites.
func (r *Registry) Sites() []core.Usite {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]core.Usite, 0, len(r.sites))
	for u := range r.sites {
		out = append(out, u)
	}
	return out
}

// Client is the RPC client used by the user tier (JPA/Session) and by
// NJS→peer-gateway communication. Every op of the operation table that has a
// frame form — all but federation gossip — rides one persistent multiplexed
// frame stream per site, authenticated once by its signed hello; when the
// transport has no stream path, or DisableStreams is set, each call travels
// as one signed envelope per POST instead.
type Client struct {
	tr       Transport
	cred     *pki.Credential
	ca       *pki.Authority
	registry *Registry
	// Retries is the number of additional attempts after a transport
	// failure (the asynchronous protocol makes retries safe: consignment is
	// idempotent via ConsignID, everything else is read-only or
	// idempotent).
	Retries int
	// DisableStreams keeps every call on the envelope POST path — for
	// callers whose traffic must stay per-request (fault-injection shims,
	// conservative relays).
	DisableStreams bool

	// smu guards the per-site persistent streams.
	smu     sync.Mutex
	streams map[core.Usite]*siteStream
}

// siteStream is the per-site stream slot: at most one live connection, and a
// sticky "no stream path to this site" verdict.
type siteStream struct {
	mu       sync.Mutex
	conn     *streamConn
	noStream bool
}

// NewClient builds a client. tr is typically an *InProc for tests or an
// HTTPTransport with pki.ClientTLS config for real deployments; wrap a bare
// http.RoundTripper with OverHTTP.
func NewClient(tr Transport, cred *pki.Credential, ca *pki.Authority, reg *Registry) *Client {
	return &Client{tr: tr, cred: cred, ca: ca, registry: reg, Retries: 2,
		streams: make(map[core.Usite]*siteStream)}
}

// DN returns the client identity.
func (c *Client) DN() core.DN { return c.cred.DN() }

// Registry returns the client's site registry.
func (c *Client) Registry() *Registry { return c.registry }

// Close tears down every persistent stream. The client remains usable; new
// calls redial as needed.
func (c *Client) Close() {
	c.smu.Lock()
	streams := make([]*siteStream, 0, len(c.streams))
	for _, ss := range c.streams {
		streams = append(streams, ss)
	}
	c.smu.Unlock()
	for _, ss := range streams {
		ss.mu.Lock()
		if ss.conn != nil {
			ss.conn.close()
			ss.conn = nil
		}
		ss.mu.Unlock()
	}
}

// Call sends one request to a Usite's gateway and decodes the reply payload
// into replyOut (a pointer). Server errors arrive as *ErrorReply errors.
// Cancellation aborts the in-flight round trip (a server long-poll —
// MsgSubscribe — unblocks as soon as the caller cancels) and stops the retry
// loop.
func (c *Client) Call(ctx context.Context, usite core.Usite, t MsgType, payload any, replyOut any) error {
	if !c.DisableStreams {
		if err, handled := c.streamCall(ctx, usite, t, payload, replyOut); handled {
			return err
		}
	}
	return c.callOnce(ctx, usite, t, payload, replyOut)
}

// callOnce performs one sealed envelope round trip.
func (c *Client) callOnce(ctx context.Context, usite core.Usite, t MsgType, payload any, replyOut any) error {
	base, ok := c.registry.Lookup(usite)
	if !ok {
		return fmt.Errorf("protocol: unknown Usite %q", usite)
	}
	// Propagate the caller's distributed trace in the envelope header.
	body, err := SealTraced(c.cred, telemetry.TraceFrom(ctx), t, payload)
	if err != nil {
		return err
	}
	var respBody []byte
	attempts := c.Retries + 1
	for i := 0; i < attempts; i++ {
		if err = ctx.Err(); err != nil {
			return fmt.Errorf("protocol: %s to %s: %w", t, usite, err)
		}
		respBody, err = c.tr.Post(ctx, base, body)
		if err == nil {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("protocol: %s to %s failed after %d attempts: %w", t, usite, attempts, err)
	}
	rt, raw, err := openReply(c.ca, usite, respBody)
	if err != nil {
		return err
	}
	// A correctly signed reply of the wrong type would otherwise decode to a
	// zero value of the expected one (a list-reply read as "job not found").
	if want, ok := ReplyType(t); ok && rt != want {
		return fmt.Errorf("protocol: %s to %s answered with a %s, want %s", t, usite, rt, want)
	}
	if replyOut == nil {
		return nil
	}
	if err := json.Unmarshal(raw, replyOut); err != nil {
		return fmt.Errorf("protocol: decoding %s reply: %w", rt, err)
	}
	return nil
}

// openReply verifies one server-signed reply envelope — a POST response or
// a stream hello's answer. A MsgError reply comes back as an *ErrorReply
// error.
func openReply(ca *pki.Authority, usite core.Usite, data []byte) (MsgType, json.RawMessage, error) {
	rt, raw, _, role, err := Open(ca, data)
	if err != nil {
		return "", nil, fmt.Errorf("protocol: verifying reply from %s: %w", usite, err)
	}
	if role != pki.RoleServer {
		return "", nil, fmt.Errorf("protocol: reply from %s signed by a %s certificate, want server", usite, role)
	}
	if rt == MsgError {
		var er ErrorReply
		if err := json.Unmarshal(raw, &er); err != nil {
			return "", nil, fmt.Errorf("protocol: undecodable error reply: %w", err)
		}
		return "", nil, &er
	}
	return rt, raw, nil
}

// stream returns the live persistent stream to a site, dialing one if
// needed. ErrNoStream is sticky: once the transport reports it has no stream
// path, the site stays on envelopes until the client is rebuilt.
func (c *Client) stream(ctx context.Context, usite core.Usite) (*streamConn, error) {
	c.smu.Lock()
	ss := c.streams[usite]
	if ss == nil {
		ss = &siteStream{}
		c.streams[usite] = ss
	}
	c.smu.Unlock()

	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.noStream {
		return nil, ErrNoStream
	}
	if ss.conn != nil && ss.conn.alive() {
		return ss.conn, nil
	}
	ss.conn = nil
	base, ok := c.registry.Lookup(usite)
	if !ok {
		return nil, fmt.Errorf("protocol: unknown Usite %q", usite)
	}
	sc, err := openStream(ctx, c.tr, base, c.cred, c.ca, usite)
	if err != nil {
		if errors.Is(err, ErrNoStream) {
			ss.noStream = true
		}
		return nil, err
	}
	ss.conn = sc
	return sc, nil
}

// dropSiteStream closes the site's stream (all of them when sc is nil; only
// a specific dead one otherwise, so a racing redial is not torn down).
func (c *Client) dropSiteStream(usite core.Usite, sc *streamConn) {
	c.smu.Lock()
	ss := c.streams[usite]
	c.smu.Unlock()
	if ss == nil {
		return
	}
	ss.mu.Lock()
	if ss.conn != nil && (sc == nil || ss.conn == sc) {
		ss.conn.close()
		ss.conn = nil
	}
	ss.mu.Unlock()
	if sc != nil {
		sc.close()
	}
}

// streamCall routes one call over the site's persistent stream.
// handled=false means "this call did not happen over the stream — use the
// envelope path": an op with no frame form, no stream path, or a connection
// that died even after one reconnect (the envelope path has its own retry
// loop, and a request replayed on a fresh stream is replayed exactly as that
// loop would re-POST it). A hello the server refused is the call's answer,
// not a dead connection.
func (c *Client) streamCall(ctx context.Context, usite core.Usite, t MsgType, payload any, replyOut any) (error, bool) {
	op := opByRequest[t]
	if op == nil || op.wire == nil {
		return nil, false
	}
	// The request is encoded behind a reserved header in one pooled buffer,
	// released once the frame is sent. Everything the request references (a
	// chunk's Data) is copied here and not touched again.
	frame := getFrameBuf(0)
	defer putFrameBuf(frame)
	var err error
	if *frame, err = op.wire.encodeRequest(*frame, payload, telemetry.TraceFrom(ctx)); err != nil {
		// A payload of another type goes out as the envelope the caller built;
		// a request with no walk is this package's mistake, and is the answer.
		return err, !errors.Is(err, errNotRequest)
	}
	kind, _, _ := op.wire.frames()

	f, err := c.streamRoundTrip(ctx, usite, kind, *frame)
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("protocol: %s to %s: %w", t, usite, ctx.Err()), true
		}
		var refused *ErrorReply
		if errors.As(err, &refused) {
			return err, true
		}
		return nil, false
	}
	if f.Kind == FrameError {
		code, msg := parseStreamError(f.Payload)
		if code == StreamErrBadFrame {
			c.dropSiteStream(usite, nil)
			return nil, false
		}
		// Mirror the envelope path's error shape: the gateway would have
		// sealed this as an ErrorReply coded with the request type.
		return &ErrorReply{Code: string(t), Message: msg}, true
	}
	if err := op.wire.decodeReply(t, f, replyOut); err != nil {
		if errors.Is(err, errReplyOut) {
			// The caller's mistake: the stream is fine and the request has
			// run; re-sending it on the envelope path would run it twice and
			// hide the mistake behind a zero reply.
			return err, true
		}
		// An undecodable reply poisons the connection, not the call.
		c.dropSiteStream(usite, nil)
		return nil, false
	}
	return nil, true
}

// streamRoundTrip performs one frame round trip, transparently reconnecting
// and replaying once when the persistent connection died under the call.
func (c *Client) streamRoundTrip(ctx context.Context, usite core.Usite, kind byte, frame []byte) (Frame, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		sc, err := c.stream(ctx, usite)
		if err != nil {
			return Frame{}, err
		}
		f, err := sc.roundTrip(ctx, kind, frame)
		if err == nil {
			return f, nil
		}
		if ctx.Err() != nil {
			return Frame{}, err
		}
		// The stream died mid-call: drop it and replay on a fresh one.
		c.dropSiteStream(usite, sc)
		lastErr = err
	}
	return Frame{}, lastErr
}

// SubscribeStream opens a push subscription over the site's persistent v3
// stream: the server delivers event batches as they happen, with no
// long-poll round trip per batch. The channel closes when the subscription
// ends (terminal job event, connection loss, consumer overflow); a close
// without a terminal event means "resume by cursor" — re-subscribe or fall
// back to polling; nothing is lost either way. Returns ErrNoStream when the
// site has no stream path (POST-only transport).
func (c *Client) SubscribeStream(ctx context.Context, usite core.Usite, req SubscribeRequest) (<-chan EventsReply, func(), error) {
	if c.DisableStreams {
		return nil, nil, ErrNoStream
	}
	sc, err := c.stream(ctx, usite)
	if err != nil {
		return nil, nil, err
	}
	id, ch, err := sc.subscribe(binSub{SubscribeRequest: req})
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrNoStream, err)
	}
	out := make(chan EventsReply, 16)
	done := make(chan struct{})
	var once sync.Once
	stop := func() {
		once.Do(func() {
			sc.unsubscribe(id)
			close(done)
		})
	}
	go func() {
		defer close(out)
		for {
			select {
			case b, ok := <-ch:
				if !ok {
					return
				}
				select {
				case out <- b.EventsReply:
				case <-done:
					return
				}
			case <-done:
				return
			}
		}
	}()
	return out, stop, nil
}
