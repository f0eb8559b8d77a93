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
// frame stream per site, authenticated once by its signed hello; gossip
// travels as one signed envelope per POST.
type Client struct {
	tr       Transport
	cred     *pki.Credential
	ca       *pki.Authority
	registry *Registry
	// Retries is the number of additional attempts after a transport failure:
	// a stream that cannot be dialled, dies under the call or delivers a
	// poisoned reply is dropped, and the request replayed on a fresh one (the
	// asynchronous protocol makes replays safe: consignment is idempotent via
	// ConsignID, everything else is read-only or idempotent).
	Retries int

	// smu guards the per-site persistent streams.
	smu     sync.Mutex
	streams map[core.Usite]*siteStream
}

// siteStream is the per-site stream slot: at most one live connection.
type siteStream struct {
	mu   sync.Mutex
	conn *streamConn
}

// NewClient builds a client. tr is typically an *InProc for tests or an
// HTTPTransport with pki.ClientTLS config for real deployments.
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
// into replyOut (a pointer). Server errors arrive as *ErrorReply errors. A
// row with a frame form rides the site's stream; the one row without
// (federation gossip) is a sealed envelope. Cancellation aborts the in-flight
// round trip (a held MsgSubscribe unblocks as soon as the caller cancels) and
// stops the retry loop. A *TransferReply lends the spare capacity of its Data
// as the receive buffer of a data reply (recvBuf); nothing writes that buffer
// once Call has returned, so a call cancelled while its reply is being read
// returns when the read is over.
func (c *Client) Call(ctx context.Context, usite core.Usite, t MsgType, payload any, replyOut any) error {
	if op := opByRequest[t]; op != nil && op.wire != nil {
		return c.streamCall(ctx, usite, t, op.wire, payload, replyOut)
	}
	return c.callOnce(ctx, usite, t, payload, replyOut)
}

// callOnce performs one sealed envelope round trip.
func (c *Client) callOnce(ctx context.Context, usite core.Usite, t MsgType, payload any, replyOut any) error {
	base, ok := c.registry.Lookup(usite)
	if !ok {
		return fmt.Errorf("%w %q", errUnknownUsite, usite)
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
// needed.
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
	if ss.conn != nil && ss.conn.alive() {
		return ss.conn, nil
	}
	ss.conn = nil
	base, ok := c.registry.Lookup(usite)
	if !ok {
		return nil, fmt.Errorf("%w %q", errUnknownUsite, usite)
	}
	sc, err := openStream(ctx, c.tr, base, c.cred, c.ca, usite)
	if err != nil {
		return nil, err
	}
	ss.conn = sc
	return sc, nil
}

var errUnknownUsite = errors.New("protocol: unknown Usite")

// dropSiteStream closes the site's stream if it is still sc, so a racing
// redial is not torn down.
func (c *Client) dropSiteStream(usite core.Usite, sc *streamConn) {
	c.smu.Lock()
	ss := c.streams[usite]
	c.smu.Unlock()
	ss.mu.Lock()
	if ss.conn == sc {
		ss.conn = nil
	}
	ss.mu.Unlock()
	sc.close()
}

// streamCall runs one call over the site's persistent stream, redialling and
// replaying within the Retries budget while it is the connection, not the
// call, that fails.
func (c *Client) streamCall(ctx context.Context, usite core.Usite, t MsgType, row wireRow, payload any, replyOut any) error {
	// The request is encoded behind a reserved header in one pooled buffer,
	// released once the call is over. Everything the request references (a
	// chunk's Data) is copied here and not touched again.
	frame := getFrameBuf(0)
	defer putFrameBuf(frame)
	var err error
	if *frame, err = row.encodeRequest(*frame, payload, telemetry.TraceFrom(ctx)); err != nil {
		return err
	}
	attempts := c.Retries + 1
	for i := 0; i < attempts && ctx.Err() == nil; i++ {
		var final bool
		if final, err = c.attempt(ctx, usite, t, row, *frame, replyOut); final {
			return err
		}
	}
	if ctx.Err() != nil {
		return fmt.Errorf("protocol: %s to %s: %w", t, usite, ctx.Err())
	}
	return fmt.Errorf("protocol: %s to %s failed after %d attempts: %w", t, usite, attempts, err)
}

// attempt is one try of a call. final=false means the connection failed, not
// the call — it could not be dialled, died under the request, or delivered a
// reply nobody can read — and has been dropped: the request may be replayed
// on a fresh one. A hello the server refused, a site with no stream path and
// an error the server answered are the call's answer.
func (c *Client) attempt(ctx context.Context, usite core.Usite, t MsgType, row wireRow, frame []byte, replyOut any) (final bool, err error) {
	sc, err := c.stream(ctx, usite)
	if err != nil {
		var refused *ErrorReply
		return errors.As(err, &refused) || errors.Is(err, ErrNoStream) || errors.Is(err, errUnknownUsite), err
	}
	kind, _, _ := row.frames()
	f, err := sc.roundTrip(ctx, kind, frame, recvBuf(replyOut))
	if err != nil {
		if ctx.Err() == nil {
			c.dropSiteStream(usite, sc)
		}
		return false, err
	}
	if f.Kind == FrameError {
		code, msg := parseStreamError(f.Payload)
		if code != StreamErrBadFrame {
			return true, &ErrorReply{Code: string(t), Message: msg}
		}
		err = errors.New(msg)
	} else if err = row.decodeReply(t, f, replyOut); err == nil || errors.Is(err, errReplyOut) {
		// errReplyOut is the caller's mistake: the stream is fine and the
		// request has run; replaying it would run it twice and hide the
		// mistake behind a zero reply.
		return true, err
	}
	// A bad frame either way poisons the connection, not the call.
	c.dropSiteStream(usite, sc)
	return false, err
}

// recvBuf is the receive buffer a call lends its reply: the spare capacity of
// a TransferReply's Data. A data reply that fits is read straight into it, so
// the reply's Data aliases the caller's buffer and a downloaded byte costs the
// client no allocation; one that does not fit is allocated as any reply is.
func recvBuf(replyOut any) []byte {
	if r, ok := replyOut.(*TransferReply); ok {
		return r.Data[:cap(r.Data)]
	}
	return nil
}

// SubscribeStream opens a push subscription over the site's persistent v3
// stream: the server delivers event batches as they happen, with no
// long-poll round trip per batch. The channel closes when the subscription
// ends (terminal job event, connection loss, consumer overflow); a close
// without a terminal event means "resume by cursor": re-subscribe, and
// nothing is lost.
func (c *Client) SubscribeStream(ctx context.Context, usite core.Usite, req SubscribeRequest) (<-chan EventsReply, func(), error) {
	sc, err := c.stream(ctx, usite)
	if err != nil {
		return nil, nil, err
	}
	id, ch, err := sc.subscribe(binSub{SubscribeRequest: req})
	if err != nil {
		return nil, nil, err
	}
	return ch, func() { sc.unsubscribe(id) }, nil
}
