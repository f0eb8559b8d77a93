// Package gateway implements the UNICORE server's public face (paper §4.2,
// §5.2): the https Web server plus the Java security servlet. The gateway
//
//   - authenticates every request by verifying the envelope signature chain
//     against the site CA (the reproduction of the https/X.509 mutual
//     authentication of §4.1),
//   - maps the user's certificate distinguished name to the local user-id at
//     the target system through the site's UUDB ("the Java security servlet
//     (gateway) which maps the user's certificate to the user's id at the
//     target system"),
//   - offers a hook for "additional site specific authentication" (smart
//     cards, DCE) exactly where the paper places it,
//   - serves the signed applets (JPA/JMC payloads) and the Vsites' resource
//     pages in ASN.1, and
//   - forwards authenticated requests to the NJS, in-process — behind a Front
//     (split.go) the whole gateway is the inside half of §5.2's firewall split.
//
// # Concurrency model
//
// Handle is safe for any number of concurrent callers and takes no gateway
// lock on the request path: traffic counters are atomics in the telemetry
// registry, and the applet store sits behind its own RWMutex so applet
// serving never contends with anything else. Per-request state flows through
// the NJS, which shards its locking per job.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unicore/internal/core"
	"unicore/internal/federation"
	"unicore/internal/njs"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/telemetry"
	"unicore/internal/uudb"
)

// maxRequest bounds one request envelope. AJOs carry workstation files
// inline (§5.6), so the bound is generous.
const maxRequest = 64 << 20

// maxEventWait caps how long one MsgSubscribe request may long-poll
// server-side. The cap is real (wall-clock) time even under a virtual-clock
// deployment: holding a request is a transport concern, and burning no
// virtual events keeps simulations deterministic.
const maxEventWait = 2 * time.Minute

// Errors reported by the gateway.
var (
	ErrNotPermitted = errors.New("gateway: role not permitted for this request")
	ErrSiteAuth     = errors.New("gateway: site-specific authentication failed")
	ErrBadApplet    = errors.New("gateway: applet signature invalid")
)

// SiteAuth is the hook for site-specific authentication beyond the X.509
// check: "for sites that require the use of smart cards or run DCE ... it
// also offers an interface for additional site specific authentication"
// (§4.2). It runs for user-role callers after signature verification.
type SiteAuth func(dn core.DN) error

// Applet is a signed software payload — the stand-in for the signed Java
// applets (JPA/JMC) of §4.1/§5.2. The signature is a detached signature by a
// software-publisher credential over Payload; clients verify it before
// trusting the code ("the applet certificate is checked to assure the user
// that the software has not been tampered with").
type Applet struct {
	Name      string
	Version   string
	Payload   []byte
	Signature pki.Signature
}

// SignApplet produces an applet signed by a software-publisher credential.
func SignApplet(publisher *pki.Credential, name, version string, payload []byte) (Applet, error) {
	if publisher.Role != pki.RoleSoftware {
		return Applet{}, fmt.Errorf("gateway: applet signer has role %s, want %s", publisher.Role, pki.RoleSoftware)
	}
	sig, err := publisher.Sign(payload)
	if err != nil {
		return Applet{}, err
	}
	return Applet{Name: name, Version: version, Payload: payload, Signature: sig}, nil
}

// Stats counts gateway traffic, by message type and by rejection cause.
type Stats struct {
	Requests  int64
	Rejected  int64
	ByType    map[protocol.MsgType]int64
	ByFailure map[string]int64
}

// Config assembles a gateway.
type Config struct {
	Usite core.Usite
	// Cred is the gateway's server certificate (presented in every reply
	// envelope, mirroring the server side of the SSL handshake).
	Cred *pki.Credential
	// CA is the trust root for verifying callers.
	CA *pki.Authority
	// Users is the site's UNICORE user database for DN→login mapping.
	Users *uudb.DB
	// Backend is the server tier behind the gateway: the site's *njs.NJS, or
	// a pool.Router fronting health-checked NJS replica pools per Vsite. The
	// gateway installs itself as its login mapper.
	Backend njs.Service
	// SiteAuth, when set, is consulted for every user-role request.
	SiteAuth SiteAuth
}

// Gateway is one Usite's UNICORE server front end.
type Gateway struct {
	usite    core.Usite
	cred     *pki.Credential
	ca       *pki.Authority
	users    *uudb.DB
	siteAuth SiteAuth

	// backend holds the server tier behind an atomic pointer so a recovered
	// NJS (or a rebuilt replica router) can be swapped in while requests are
	// in flight (the gateway and the NJS restart independently in the §5.2
	// split deployment). The box keeps the stored concrete type uniform.
	backend atomic.Pointer[backendBox]

	// fed is the optional federation membership (SetFederation): gossip
	// with peer gateways, broker placement over their advertisements, and
	// cross-gateway forwarding of consigns. Nil on unfederated gateways —
	// every federation hook on the request path is a single atomic load.
	fed atomic.Pointer[federation.Federation]

	// appletMu guards only the applet store; serving an applet never
	// contends with traffic accounting or other requests.
	appletMu sync.RWMutex
	applets  map[string]Applet

	// tel holds the traffic counters — gateway_requests_total{type}, one
	// series per row of the operation table plus unknownType, and
	// gateway_rejected_total{cause}, which Stats reads back — and what Stats
	// never carried: signature-verify latency, long-poll occupancy, and the
	// "gateway.dispatch" trace spans. Deployments running on a virtual clock
	// point its clock at the simulation via Telemetry().SetNow.
	tel *telemetry.Registry

	// sourceMu guards extra metric sources (e.g. a topology controller's
	// registry) appended to MsgMetrics scrapes alongside the backend's.
	sourceMu sync.Mutex
	sources  []func() []telemetry.Snapshot
}

// New assembles a gateway and wires it into the NJS as its login mapper.
func New(cfg Config) (*Gateway, error) {
	if cfg.Usite == "" {
		return nil, errors.New("gateway: empty usite")
	}
	if cfg.Cred == nil || cfg.Cred.Role != pki.RoleServer {
		return nil, errors.New("gateway: need a server-role credential")
	}
	if cfg.CA == nil {
		return nil, errors.New("gateway: nil CA")
	}
	if cfg.Users == nil {
		return nil, errors.New("gateway: nil user database")
	}
	if cfg.Backend == nil {
		return nil, errors.New("gateway: nil Backend")
	}
	g := &Gateway{
		usite:    cfg.Usite,
		cred:     cfg.Cred,
		ca:       cfg.CA,
		users:    cfg.Users,
		siteAuth: cfg.SiteAuth,
		applets:  make(map[string]Applet),
		tel:      telemetry.New("gateway/" + string(cfg.Usite)),
	}
	g.SetBackend(cfg.Backend)
	return g, nil
}

// backendBox wraps the service interface for atomic storage regardless of
// the concrete backend type.
type backendBox struct{ svc njs.Service }

// svc returns the server tier currently behind this gateway.
func (g *Gateway) svc() njs.Service { return g.backend.Load().svc }

// Backend returns the server tier currently behind this gateway: a single
// *njs.NJS or a pool.Router over replica sets.
func (g *Gateway) Backend() njs.Service { return g.svc() }

// NJS returns the network job supervisor currently behind this gateway, or
// nil when the backend is a replica pool rather than a single NJS (use
// Backend for the general form).
func (g *Gateway) NJS() *njs.NJS {
	n, _ := g.svc().(*njs.NJS)
	return n
}

// SetBackend swaps the server tier behind the gateway — the restart path: a
// recovered NJS (njs.Recover) or a rebuilt router takes over from the dead
// one without the gateway or its clients noticing anything beyond the
// recovery gap. The gateway re-installs itself as the new backend's login
// mapper.
func (g *Gateway) SetBackend(s njs.Service) {
	s.SetLoginMapper(g.MapLogin)
	g.backend.Store(&backendBox{svc: s})
}

// Telemetry returns the gateway's metrics registry (debug endpoints and
// virtual-clock deployments wire its clock through SetNow).
func (g *Gateway) Telemetry() *telemetry.Registry { return g.tel }

// AddMetricsSource appends an extra snapshot source to MsgMetrics scrapes —
// how out-of-band registries (a topology controller's, say) become visible
// through the same `unicore-status metrics` door as the serving tiers.
func (g *Gateway) AddMetricsSource(fn func() []telemetry.Snapshot) {
	if fn == nil {
		return
	}
	g.sourceMu.Lock()
	g.sources = append(g.sources, fn)
	g.sourceMu.Unlock()
}

// Metrics returns the gateway's snapshot followed by the backend tier's and
// any registered extra sources' — the full per-origin breakdown behind a
// MsgMetrics scrape.
func (g *Gateway) Metrics() []telemetry.Snapshot {
	out := append([]telemetry.Snapshot{g.tel.Snapshot()}, g.svc().Metrics()...)
	g.sourceMu.Lock()
	sources := append([]func() []telemetry.Snapshot(nil), g.sources...)
	g.sourceMu.Unlock()
	for _, fn := range sources {
		out = append(out, fn()...)
	}
	return out
}

// Usite returns the site this gateway fronts.
func (g *Gateway) Usite() core.Usite { return g.usite }

// DN returns the gateway's server identity.
func (g *Gateway) DN() core.DN { return g.cred.DN() }

// MapLogin resolves a user DN to the local login at a Vsite — the security
// servlet's defining function. It is installed into the NJS so that the
// mapping stays at the security tier.
func (g *Gateway) MapLogin(dn core.DN, vsite core.Vsite) (uudb.Login, error) {
	return g.users.Map(dn, vsite)
}

// InstallApplet registers a signed applet after verifying its signature
// chains to the CA with the software role — a site never serves tampered
// code.
func (g *Gateway) InstallApplet(a Applet) error {
	if _, err := g.ca.VerifySignature(a.Payload, a.Signature, pki.RoleSoftware); err != nil {
		return fmt.Errorf("%w: %v", ErrBadApplet, err)
	}
	g.appletMu.Lock()
	defer g.appletMu.Unlock()
	g.applets[a.Name] = a
	return nil
}

// AppletNames lists the installed applets, sorted.
func (g *Gateway) AppletNames() []string {
	g.appletMu.RLock()
	names := make([]string, 0, len(g.applets))
	for n := range g.applets {
		names = append(names, n)
	}
	g.appletMu.RUnlock()
	sort.Strings(names)
	return names
}

// Stats returns a snapshot of the traffic counters. Only message types that
// have been seen appear in the maps.
func (g *Gateway) Stats() Stats {
	s := Stats{ByType: make(map[protocol.MsgType]int64), ByFailure: make(map[string]int64)}
	for _, p := range g.tel.Snapshot().Metrics {
		switch p.Name {
		case "gateway_requests_total":
			s.Requests += int64(p.Value)
			s.ByType[protocol.MsgType(p.Labels["type"])] = int64(p.Value)
		case "gateway_rejected_total":
			s.Rejected += int64(p.Value)
			s.ByFailure[p.Labels["cause"]] = int64(p.Value)
		}
	}
	return s
}

// count records one verified request; t is a row of the operation table or
// unknownType.
func (g *Gateway) count(t protocol.MsgType) {
	g.tel.Counter("gateway_requests_total", "type", string(t)).Inc()
}

func (g *Gateway) countFailure(cause string) {
	g.tel.Counter("gateway_rejected_total", "cause", cause).Inc()
}

// ServeHTTP implements the site's https endpoint: POST /unicore carries
// envelopes; GET / serves the UNICORE Web page ("the https Web server which
// provides the UNICORE Web page", §4.2).
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == protocol.StreamEndpoint:
		// The stream outlives the upgrade request: detach from its
		// cancellation but keep its trace/log values.
		if conn, ok := upgradeStream(w, r); ok {
			g.ServeStream(context.WithoutCancel(r.Context()), conn)
		}
	case r.Method == http.MethodPost && r.URL.Path == protocol.Endpoint:
		if body, ok := readEnvelope(w, r); ok {
			w.Header().Set("Content-Type", "application/json")
			w.Write(g.HandleContext(r.Context(), body))
		}
	case r.Method == http.MethodGet && r.URL.Path == "/":
		g.serveIndex(w)
	default:
		http.NotFound(w, r)
	}
}

// readEnvelope reads one POSTed envelope, bounded by maxRequest; when it
// cannot, it has answered the request.
func readEnvelope(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequest+1))
	if err != nil {
		http.Error(w, "reading request", http.StatusBadRequest)
		return nil, false
	}
	if len(body) > maxRequest {
		http.Error(w, "request too large", http.StatusRequestEntityTooLarge)
		return nil, false
	}
	return body, true
}

// serveIndex renders the site's Web page.
func (g *Gateway) serveIndex(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<html><head><title>UNICORE site %s</title></head><body>\n", g.usite)
	fmt.Fprintf(w, "<h1>UNICORE site %s</h1>\n<h2>Vsites</h2>\n<ul>\n", g.usite)
	for _, p := range g.svc().Pages() {
		fmt.Fprintf(w, "<li>%s &mdash; %s, %d PEs</li>\n", p.Target, p.Architecture, p.Processors.Max)
	}
	fmt.Fprintf(w, "</ul>\n<h2>Signed applets</h2>\n<ul>\n")
	for _, name := range g.AppletNames() {
		fmt.Fprintf(w, "<li>%s</li>\n", name)
	}
	fmt.Fprintf(w, "</ul>\n</body></html>\n")
}

// HandleContext authenticates one request envelope and dispatches it,
// returning the sealed reply envelope. A MsgSubscribe long-poll waits on ctx,
// so cancelling the inbound request (the client went away) releases the held
// goroutine immediately.
func (g *Gateway) HandleContext(ctx context.Context, data []byte) []byte {
	o, refusal := g.authenticate(data)
	if refusal != nil {
		return refusal
	}
	if o.Trace != "" {
		// Adopt the caller's trace: every span below this point — including
		// the backend tier's — lands in the same cross-tier trace.
		ctx = telemetry.WithTrace(ctx, o.Trace)
	}
	t := o.Type
	row, known := ops[t]
	if !known {
		// The one place an unknown request type is handled: one counter
		// bucket and one failure cause, whatever the sender called it.
		g.count(unknownType)
		g.countFailure(string(unknownType))
		return g.sealError(o.Trace, string(unknownType), fmt.Errorf("gateway: unsupported request type %q", t))
	}
	g.count(t)
	reply, err := row.envelope(g, ctx, caller{dn: o.From, asServer: o.Role == pki.RoleServer}, o.Payload)
	if err != nil {
		g.countFailure(string(t))
		return g.sealError(o.Trace, string(t), err)
	}
	rt, _ := protocol.ReplyType(t)
	out, err := protocol.SealTraced(g.cred, o.Trace, rt, reply)
	if err != nil {
		return g.sealError(o.Trace, "internal", err)
	}
	return out
}

// authenticate admits one signed envelope — a POSTed request or a stream
// hello — to the gateway: verify it against the CA (counted and timed), then
// apply the role policy and the site-specific authentication. A non-nil
// refusal is the sealed error reply; the envelope goes no further.
func (g *Gateway) authenticate(data []byte) (o protocol.Opened, refusal []byte) {
	verifyStart := time.Now()
	o, err := protocol.OpenTraced(g.ca, data)
	g.tel.Counter("pki_verify_total").Inc()
	g.tel.Histogram("pki_verify_seconds", telemetry.ScaleSeconds).ObserveSince(verifyStart)
	if err != nil {
		g.countFailure("authentication")
		return o, g.sealError(o.Trace, "authentication", err)
	}
	switch o.Role {
	case pki.RoleUser, pki.RoleServer:
		// Users and peer UNICORE servers may talk to a gateway.
	default:
		g.countFailure("role")
		return o, g.sealError(o.Trace, "role", fmt.Errorf("%w: %q", ErrNotPermitted, o.Role))
	}
	if o.Role == pki.RoleUser && g.siteAuth != nil {
		if err := g.siteAuth(o.From); err != nil {
			g.countFailure("site-auth")
			return o, g.sealError(o.Trace, "site-auth", fmt.Errorf("%w: %v", ErrSiteAuth, err))
		}
	}
	return o, nil
}

// longPollEvents serves one MsgSubscribe: fetch buffered events past the
// cursor; when none are available and the request asked to wait, hold until
// the backend signals an append, the wall-clock wait expires, or the caller
// goes away — then reply with everything buffered by then (coalescing). The
// notify channel is taken before each fetch, so an append racing the fetch
// wakes the next round instead of being lost.
func (g *Gateway) longPollEvents(ctx context.Context, c caller, req protocol.SubscribeRequest) (protocol.EventsReply, error) {
	occupancy := g.tel.Gauge("gateway_longpoll_active")
	occupancy.Inc()
	defer occupancy.Dec()
	wait := time.Duration(req.WaitMs) * time.Millisecond
	if wait > maxEventWait {
		wait = maxEventWait
	}
	var deadline <-chan time.Time
	if wait > 0 {
		tm := time.NewTimer(wait)
		defer tm.Stop()
		deadline = tm.C
	}
	for {
		svc := g.svc()
		ch, release := svc.EventsNotify(req)
		reply, err := svc.Events(c.dn, c.asServer, req)
		if err != nil || len(reply.Events) > 0 || wait <= 0 {
			release()
			return reply, err
		}
		select {
		case <-ch:
			release()
		case <-deadline:
			release()
			return reply, nil
		case <-ctx.Done():
			release()
			return reply, nil
		}
	}
}

// sealError wraps a failure as a signed error reply, echoing the request's
// trace ID so a failed hop still shows up in its trace. If even sealing fails
// the gateway returns an unsigned error document as a last resort.
func (g *Gateway) sealError(trace, code string, cause error) []byte {
	out, err := protocol.SealTraced(g.cred, trace, protocol.MsgError, protocol.ErrorReply{
		Code:    code,
		Message: cause.Error(),
	})
	if err != nil {
		fallback, _ := json.Marshal(map[string]string{"fatal": err.Error()})
		return fallback
	}
	return out
}
