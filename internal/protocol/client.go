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

// Client is the RPC client used by the user tier (JPA/Session), by
// NJS→peer-gateway communication and by gateway-to-gateway federation. Every
// op of the operation table runs through Do on one persistent multiplexed
// frame stream per site, authenticated once by its signed hello. A server's
// client keeps one more stream per site for each user it relays calls for
// (DoFor): the user is named once, in that stream's hello.
type Client struct {
	tr       Transport
	cred     *pki.Credential
	dn       core.DN // cred's, rendered once
	ca       *pki.Authority
	registry *Registry
	// Retries is the number of additional attempts after a transport failure:
	// a stream that cannot be dialled, dies under the call or delivers a
	// poisoned reply is dropped, and the request replayed on a fresh one (the
	// asynchronous protocol makes replays safe: consignment is idempotent via
	// ConsignID, everything else is read-only or idempotent).
	Retries int

	// smu guards the persistent streams.
	smu     sync.Mutex
	streams map[streamKey]*siteStream
}

// streamKey names one persistent stream: the site it is addressed to and the
// user its hello acts for ("" for the client's own identity).
type streamKey struct {
	usite     core.Usite
	actingFor core.DN
}

// siteStream is the per-key stream slot: at most one live connection.
type siteStream struct {
	mu   sync.Mutex
	conn *streamConn
}

// NewClient builds a client. tr is typically an *InProc for tests or an
// HTTPTransport with pki.ClientTLS config for real deployments.
func NewClient(tr Transport, cred *pki.Credential, ca *pki.Authority, reg *Registry) *Client {
	return &Client{tr: tr, cred: cred, dn: cred.DN(), ca: ca, registry: reg, Retries: 2,
		streams: make(map[streamKey]*siteStream)}
}

// DN returns the client identity.
func (c *Client) DN() core.DN { return c.dn }

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

// openReply verifies the server-signed envelope that answers a stream
// hello. A MsgError reply comes back as an *ErrorReply error.
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

// stream returns the live persistent stream of a key, dialing one if
// needed.
func (c *Client) stream(ctx context.Context, k streamKey) (*streamConn, error) {
	c.smu.Lock()
	ss := c.streams[k]
	if ss == nil {
		ss = &siteStream{}
		c.streams[k] = ss
	}
	c.smu.Unlock()

	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.conn != nil && ss.conn.alive() {
		return ss.conn, nil
	}
	ss.conn = nil
	base, ok := c.registry.Lookup(k.usite)
	if !ok {
		return nil, fmt.Errorf("%w %q", errUnknownUsite, k.usite)
	}
	sc, err := openStream(ctx, c.tr, base, c.cred, c.ca, k.usite, k.actingFor)
	if err != nil {
		return nil, err
	}
	ss.conn = sc
	return sc, nil
}

var errUnknownUsite = errors.New("protocol: unknown Usite")

// dropStream closes the key's stream if it is still sc, so a racing redial
// is not torn down.
func (c *Client) dropStream(k streamKey, sc *streamConn) {
	c.smu.Lock()
	ss := c.streams[k]
	c.smu.Unlock()
	ss.mu.Lock()
	if ss.conn == sc {
		ss.conn = nil
	}
	ss.mu.Unlock()
	sc.close()
}

// Do runs one op against a Usite's gateway over the site's persistent frame
// stream and decodes the reply into rep (nil: reply discarded, errors still
// surfaced); server errors arrive as *ErrorReply errors. The request is
// encoded once, into a pooled buffer, but for a chunk's Data, which every
// attempt writes from the caller's slice; either is the caller's again as
// soon as Do returns. While it is the connection, not the call, that fails,
// the request is replayed on a fresh one within c.Retries. Cancellation aborts the in-flight round trip (a held
// subscription unblocks at once) and stops the replays.
//
// A TransferReply lends the spare capacity of its Data as the receive buffer:
// a data reply that fits is read straight into it, so a downloaded byte costs
// the client no allocation, and nothing writes that buffer once Do returns.
func Do[Req, Rep any](ctx context.Context, c *Client, usite core.Usite, op *Op[Req, Rep], req Req, rep *Rep) error {
	return DoFor(ctx, c, usite, "", op, req, rep)
}

// DoFor is Do on the site's stream that acts for user: a server relaying a
// user's call names the user once, in that stream's hello, and the site
// judges every call on it as the user's own. An empty user is Do.
func DoFor[Req, Rep any](ctx context.Context, c *Client, usite core.Usite, user core.DN, op *Op[Req, Rep], req Req, rep *Rep) error {
	k := streamKey{usite: usite, actingFor: user}
	frame := getFrameBuf(0)
	defer putFrameBuf(frame)
	var tail []byte
	var err error
	if *frame, tail, err = op.encodeRequest(*frame, &req, telemetry.TraceFrom(ctx)); err != nil {
		return err
	}
	var buf []byte
	if r, ok := any(rep).(*TransferReply); ok && r != nil {
		buf = r.Data[:cap(r.Data)]
	}
	attempts := c.Retries + 1
	for i := 0; i < attempts && ctx.Err() == nil; i++ {
		var final bool
		if final, err = op.attempt(ctx, c, k, *frame, tail, buf, rep); final {
			return err
		}
	}
	if ctx.Err() != nil {
		return fmt.Errorf("protocol: %s to %s: %w", op.msg, usite, ctx.Err())
	}
	return fmt.Errorf("protocol: %s to %s failed after %d attempts: %w", op.msg, usite, attempts, err)
}

// attempt is one try of a call. final=false means the connection failed, not
// the call — it could not be dialled, died under the request, or delivered a
// reply nobody can read — and has been dropped: the request may be replayed
// on a fresh one. A hello the server refused, a site with no stream path and
// an error the server answered are the call's answer.
func (o *Op[Req, Rep]) attempt(ctx context.Context, c *Client, k streamKey, frame, tail, buf []byte, rep *Rep) (final bool, err error) {
	sc, err := c.stream(ctx, k)
	if err != nil {
		var refused *ErrorReply
		return errors.As(err, &refused) || errors.Is(err, ErrNoStream) || errors.Is(err, errUnknownUsite), err
	}
	f, err := sc.roundTrip(ctx, o.kind, frame, tail, buf)
	if err != nil {
		if ctx.Err() == nil {
			c.dropStream(k, sc)
		}
		return false, err
	}
	// The decoded reply owns its fields (a data reply's Data aside, which is
	// read into the caller's own buffer): the frame's receive buffer goes
	// back to its pool once the reply is decoded.
	defer f.release()
	if f.Kind == FrameError {
		code, msg := parseStreamError(f.Payload)
		if code != StreamErrBadFrame {
			return true, &ErrorReply{Code: string(o.msg), Message: msg}
		}
		err = errors.New(msg)
	} else if err = o.decodeReply(f, rep); err == nil {
		return true, nil
	}
	// A bad frame either way poisons the connection, not the call.
	c.dropStream(k, sc)
	return false, err
}

// SubscribeStream opens a push subscription over the site's persistent v3
// stream: the server delivers event batches as they happen, with no
// long-poll round trip per batch. The channel closes when the subscription
// ends (terminal job event, connection loss, consumer overflow); a close
// without a terminal event means "resume by cursor": re-subscribe, and
// nothing is lost.
func (c *Client) SubscribeStream(ctx context.Context, usite core.Usite, req SubscribeRequest) (<-chan EventsReply, func(), error) {
	sc, err := c.stream(ctx, streamKey{usite: usite})
	if err != nil {
		return nil, nil, err
	}
	id, ch, err := sc.subscribe(binSub{SubscribeRequest: req})
	if err != nil {
		return nil, nil, err
	}
	return ch, func() { sc.unsubscribe(id) }, nil
}
