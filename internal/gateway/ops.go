package gateway

// The operation table: every request type the gateway answers is one row
// here. A frame runs its row through the handler New registers for it; the
// in-process HandleContext runs the same row from a signed envelope, so
// authorisation, federation relaying and error texts are identical on both
// by construction.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/federation"
	"unicore/internal/protocol"
	"unicore/internal/telemetry"
)

// caller is the authenticated identity a request runs under: the verified
// signer of an envelope, or the identity a stream's hello bound to it.
type caller struct {
	dn       core.DN
	asServer bool
}

// op is one row of the operation table, typed by its request and reply so
// the frame door reaches the handler without boxing either.
type op[Req, Rep any] struct {
	// wire is the op's frame form, which a federated gateway also relays the
	// request over.
	wire *protocol.Op[Req, Rep]
	// serverOnly, when set, refuses user-role callers; it names the traffic
	// the op is reserved for.
	serverOnly string
	// job, when set, returns the job a request is scoped to, and handle the
	// staged-upload handle: on a federated gateway the request follows the
	// name to the peer whose NJS minted it (peer).
	job    func(Req) core.JobID
	handle func(Req) string
	// local serves the request from this site.
	local func(*Gateway, context.Context, caller, Req) (Rep, error)
}

// serve runs one decoded request — the body both doors share: trace span,
// role check, then the federation relay or the local handler. A relayed call
// is judged by the peer that holds its job or upload: a user's goes out on a
// stream acting for the user, a server's as this gateway's server.
func (o *op[Req, Rep]) serve(g *Gateway, ctx context.Context, c caller, req Req) (Rep, error) {
	sp := g.tel.StartSpan(ctx, "gateway.dispatch").Note(string(o.request()))
	defer sp.End()
	if o.serverOnly != "" && !c.asServer {
		var none Rep
		return none, fmt.Errorf("%w: %s", ErrNotPermitted, o.serverOnly)
	}
	if f := g.fed.Load(); f != nil {
		if peer := o.peer(f, req); peer != "" {
			var user core.DN
			if !c.asServer {
				user = c.dn
			}
			var reply Rep
			err := federation.Relay(ctx, f, peer, user, o.wire, req, &reply)
			return reply, err
		}
	}
	return o.local(g, ctx, c, req)
}

// peer names the peer gateway whose NJS minted the job ID or staged-upload
// handle a request is scoped to: "" when that is this site, or when the
// request names neither.
func (o *op[Req, Rep]) peer(f *federation.Federation, req Req) core.Usite {
	switch {
	case o.job != nil:
		return f.JobSite(o.job(req))
	case o.handle != nil:
		return f.HandleSite(o.handle(req))
	}
	return ""
}

// envelope is HandleContext's half: decode the JSON payload, then serve.
func (o *op[Req, Rep]) envelope(g *Gateway, ctx context.Context, c caller, raw json.RawMessage) (any, error) {
	var req Req
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, fmt.Errorf("gateway: bad %s request: %w", o.request(), err)
	}
	return o.serve(g, ctx, c, req)
}

// register makes the row g's handler for its op's frames. The closure is
// built once per gateway, never per frame; a frame runs it under the
// identity its stream's hello bound.
func (o *op[Req, Rep]) register(g *Gateway) {
	protocol.Handle(g.frames, o.wire, func(ctx context.Context, dn core.DN, asServer bool, req Req) (Rep, error) {
		return o.serve(g, ctx, caller{dn, asServer}, req)
	})
}

func (o *op[Req, Rep]) request() protocol.MsgType { return o.wire.Type() }

// route is a row with its request and reply types erased — what
// HandleContext and New hold after a table lookup.
type route interface {
	request() protocol.MsgType
	envelope(g *Gateway, ctx context.Context, c caller, raw json.RawMessage) (any, error)
	register(g *Gateway)
}

// unknownType is the one bucket every request type outside the table is
// counted and refused under: a sender picks the type string, so counting it
// verbatim would let one authenticated peer mint unbounded metric series.
const unknownType protocol.MsgType = "unknown"

// The rows, named for the protocol ops they serve.
var (
	opConsign = &op[protocol.ConsignRequest, protocol.ConsignReply]{
		wire:  protocol.OpConsign,
		local: (*Gateway).consign,
	}
	opPoll = &op[protocol.PollRequest, protocol.PollReply]{
		wire: protocol.OpPoll,
		job:  func(req protocol.PollRequest) core.JobID { return req.Job },
		local: func(g *Gateway, _ context.Context, c caller, req protocol.PollRequest) (protocol.PollReply, error) {
			return g.svc().Poll(c.dn, c.asServer, req.Job)
		},
	}
	opOutcome = &op[protocol.OutcomeRequest, protocol.OutcomeReply]{
		wire:  protocol.OpOutcome,
		job:   func(req protocol.OutcomeRequest) core.JobID { return req.Job },
		local: (*Gateway).outcome,
	}
	opList = &op[protocol.ListRequest, protocol.ListReply]{
		wire: protocol.OpList,
		local: func(g *Gateway, _ context.Context, c caller, _ protocol.ListRequest) (protocol.ListReply, error) {
			jobs, err := g.svc().List(c.dn)
			return protocol.ListReply{Jobs: jobs}, err
		},
	}
	opControl = &op[protocol.ControlRequest, protocol.ControlReply]{
		wire: protocol.OpControl,
		job:  func(req protocol.ControlRequest) core.JobID { return req.Job },
		local: func(g *Gateway, _ context.Context, c caller, req protocol.ControlRequest) (protocol.ControlReply, error) {
			if err := g.svc().Control(c.dn, c.asServer, req.Job, req.Op); err != nil {
				return protocol.ControlReply{Reason: err.Error()}, nil
			}
			return protocol.ControlReply{OK: true}, nil
		},
	}
	opResources = &op[protocol.ResourcesRequest, protocol.ResourcesReply]{
		wire:  protocol.OpResources,
		local: (*Gateway).resources,
	}
	// opTransfer is the NJS-to-NJS Uspace read of §5.6.
	opTransfer = &op[protocol.TransferRequest, protocol.TransferReply]{
		wire:       protocol.OpTransfer,
		serverOnly: "Uspace transfers are NJS-to-NJS traffic",
		job:        func(req protocol.TransferRequest) core.JobID { return req.Job },
		local: func(g *Gateway, _ context.Context, c caller, req protocol.TransferRequest) (protocol.TransferReply, error) {
			return g.svc().FetchFileOwned(c.dn, true, req.Job, req.File, req.Offset, req.Limit)
		},
	}
	opApplet = &op[protocol.AppletRequest, protocol.AppletReply]{
		wire:  protocol.OpApplet,
		local: (*Gateway).applet,
	}
	opLoad = &op[protocol.LoadRequest, protocol.LoadReply]{
		wire: protocol.OpLoad,
		local: func(g *Gateway, _ context.Context, _ caller, _ protocol.LoadRequest) (protocol.LoadReply, error) {
			// One sampling of the backend for the whole reply: Overall is
			// the mean of the very per-Vsite figures it is sent with.
			reply := protocol.LoadReply{Vsites: g.vsiteLoadsOf(g.svc())}
			for _, l := range reply.Vsites {
				reply.Overall += l.Load / float64(len(reply.Vsites))
			}
			return reply, nil
		},
	}
	opFetch = &op[protocol.FetchRequest, protocol.TransferReply]{
		wire: protocol.OpFetch,
		job:  func(req protocol.FetchRequest) core.JobID { return req.Job },
		local: func(g *Gateway, _ context.Context, c caller, req protocol.FetchRequest) (protocol.TransferReply, error) {
			return g.svc().FetchFileOwned(c.dn, c.asServer, req.Job, req.File, req.Offset, req.Limit)
		},
	}
	// opSubscribe serves one event-batch round. A job-scoped stream of a
	// remotely-placed job relays to the peer (its gateway holds the
	// long-poll); a user's all-jobs stream (empty Job) stays local — it is
	// scoped to this Usite's log.
	opSubscribe = &op[protocol.SubscribeRequest, protocol.EventsReply]{
		wire:  protocol.OpSubscribe,
		job:   func(req protocol.SubscribeRequest) core.JobID { return req.Job },
		local: (*Gateway).longPollEvents,
	}
	opPutOpen = &op[protocol.PutOpenRequest, protocol.PutOpenReply]{
		wire:  protocol.OpPutOpen,
		local: (*Gateway).putOpen,
	}
	opPutChunk = &op[protocol.PutChunkRequest, protocol.PutChunkReply]{
		wire:   protocol.OpPutChunk,
		handle: func(req protocol.PutChunkRequest) string { return req.Handle },
		local: func(g *Gateway, _ context.Context, c caller, req protocol.PutChunkRequest) (protocol.PutChunkReply, error) {
			return g.svc().StageChunk(c.dn, c.asServer, req)
		},
	}
	opPutCommit = &op[protocol.PutCommitRequest, protocol.PutCommitReply]{
		wire:   protocol.OpPutCommit,
		handle: func(req protocol.PutCommitRequest) string { return req.Handle },
		local: func(g *Gateway, _ context.Context, c caller, req protocol.PutCommitRequest) (protocol.PutCommitReply, error) {
			return g.svc().StageCommit(c.dn, c.asServer, req)
		},
	}
	opMetrics = &op[protocol.MetricsRequest, protocol.MetricsReply]{
		wire:  protocol.OpMetrics,
		local: (*Gateway).metrics,
	}
	// Only peer gateways may gossip, and only a federated gateway answers.
	opAdvertise = &op[protocol.FedAdvertiseRequest, protocol.FedAdvertiseReply]{
		wire:       protocol.OpAdvertise,
		serverOnly: "federation gossip is gateway-to-gateway traffic",
		local: func(g *Gateway, _ context.Context, _ caller, req protocol.FedAdvertiseRequest) (protocol.FedAdvertiseReply, error) {
			f := g.fed.Load()
			if f == nil {
				return protocol.FedAdvertiseReply{}, federation.ErrNotFederated
			}
			return f.HandleAdvertise(req), nil
		},
	}
)

// ops is the operation table. The reply type that answers each request type
// is the protocol's to say (protocol.ReplyType).
var ops = table(
	opConsign, opPoll, opOutcome, opList, opControl, opResources, opTransfer, opApplet, opLoad,
	opFetch, opSubscribe, opPutOpen, opPutChunk, opPutCommit, opMetrics, opAdvertise,
)

// table indexes the rows by request type.
func table(rows ...route) map[protocol.MsgType]route {
	t := make(map[protocol.MsgType]route, len(rows))
	for _, r := range rows {
		t[r.request()] = r
	}
	return t
}

// consign admits an AJO. A user-signed consignment is owned by the signer; a
// server-signed consignment (a peer NJS distributing a job group, §5.5) is
// owned by the user recorded in the AJO.
func (g *Gateway) consign(ctx context.Context, c caller, req protocol.ConsignRequest) (protocol.ConsignReply, error) {
	action, err := ajo.Unmarshal(req.AJO)
	if err != nil {
		return protocol.ConsignReply{}, fmt.Errorf("gateway: decoding AJO: %w", err)
	}
	job, ok := action.(*ajo.AbstractJob)
	if !ok {
		return protocol.ConsignReply{}, fmt.Errorf("gateway: consigned action is %s, want a job", action.Kind())
	}
	owner := c.dn
	if c.asServer {
		if job.UserDN == "" {
			return protocol.ConsignReply{}, errors.New("gateway: server consignment without a user DN")
		}
		owner = job.UserDN
	} else if job.UserDN != "" && job.UserDN != c.dn {
		return protocol.ConsignReply{}, fmt.Errorf("gateway: AJO user %s does not match signer %s", job.UserDN, c.dn)
	}
	if f := g.fed.Load(); f != nil {
		if reply, handled, err := g.fedConsign(ctx, f, req.ConsignID, job, owner, c.asServer); handled || err != nil {
			return reply, err
		}
	}
	id, err := g.svc().Consign(ctx, owner, req.ConsignID, job)
	if err != nil {
		return protocol.ConsignReply{Job: id, Reason: err.Error()}, nil
	}
	return protocol.ConsignReply{Accepted: true, Job: id}, nil
}

// outcome returns a job's outcome tree as the NJS holds it: a finished
// job's shared tree goes out uncopied, walked straight into the reply's
// frame body and never written.
func (g *Gateway) outcome(_ context.Context, c caller, req protocol.OutcomeRequest) (protocol.OutcomeReply, error) {
	o, found, err := g.svc().Outcome(c.dn, c.asServer, req.Job)
	if err != nil || !found {
		return protocol.OutcomeReply{}, err
	}
	return protocol.OutcomeReply{Found: true, Outcome: o}, nil
}

// resources serves the ASN.1 resource pages of §5.4.
func (g *Gateway) resources(_ context.Context, _ caller, req protocol.ResourcesRequest) (protocol.ResourcesReply, error) {
	var pages [][]byte
	for _, p := range g.svc().Pages() {
		if req.Vsite != "" && p.Target.Vsite != req.Vsite {
			continue
		}
		der, err := p.MarshalASN1()
		if err != nil {
			return protocol.ResourcesReply{}, fmt.Errorf("gateway: encoding resource page %s: %w", p.Target, err)
		}
		pages = append(pages, der)
	}
	if req.Vsite != "" && len(pages) == 0 {
		return protocol.ResourcesReply{}, fmt.Errorf("gateway: no Vsite %q at %s", req.Vsite, g.usite)
	}
	return protocol.ResourcesReply{PagesDER: pages}, nil
}

// applet serves one installed signed applet.
func (g *Gateway) applet(_ context.Context, _ caller, req protocol.AppletRequest) (protocol.AppletReply, error) {
	g.appletMu.RLock()
	a, ok := g.applets[req.Name]
	g.appletMu.RUnlock()
	if !ok {
		return protocol.AppletReply{}, fmt.Errorf("gateway: no applet %q at %s", req.Name, g.usite)
	}
	return protocol.AppletReply{Name: a.Name, Version: a.Version, Payload: a.Payload, Signature: a.Signature}, nil
}

// putOpen begins a staged upload — at the peer fronting the Vsite when this
// site does not (fedStageOpen), in the local spool otherwise.
func (g *Gateway) putOpen(ctx context.Context, c caller, req protocol.PutOpenRequest) (protocol.PutOpenReply, error) {
	if reply, handled, err := g.fedStageOpen(ctx, c, req); handled || err != nil {
		return reply, err
	}
	return g.svc().StageOpen(c.dn, c.asServer, req)
}

// metrics serves a live telemetry scrape: the site aggregate, or the
// per-origin breakdown behind it.
func (g *Gateway) metrics(_ context.Context, _ caller, req protocol.MetricsRequest) (protocol.MetricsReply, error) {
	snaps := g.Metrics()
	if !req.PerReplica {
		snaps = []telemetry.Snapshot{telemetry.Merge("usite/"+string(g.usite), snaps...)}
	}
	if !req.Spans {
		for i := range snaps {
			snaps[i].Spans = nil
		}
	}
	return protocol.MetricsReply{Snapshots: snaps}, nil
}
