package gateway

// The operation table: every request type the gateway answers is one row
// here, and both doors — a signed envelope through HandleContext, a frame
// through a Stream* method — run the same row, so authorisation, federation
// relaying and error texts are identical on both paths by construction.

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
	msg protocol.MsgType
	// serverOnly, when set, refuses user-role callers; it names the traffic
	// the op is reserved for.
	serverOnly string
	// job, when set, returns the job a request is scoped to: on a federated
	// gateway the request follows the job to the peer whose NJS minted its
	// ID (fedRoute).
	job func(Req) core.JobID
	// handle, when set, returns the staged-upload handle a request is scoped
	// to and the request as it is forwarded, stamped with the user it is
	// relayed for: the request follows a peer-pinned handle (fedStageRelay).
	handle func(req Req, owner core.DN) (string, Req)
	// local serves the request from this site.
	local func(*Gateway, context.Context, caller, Req) (Rep, error)
}

// serve runs one decoded request — the body both doors share: trace span,
// role check, then the federation relay or the local handler.
func (o *op[Req, Rep]) serve(g *Gateway, ctx context.Context, c caller, req Req) (Rep, error) {
	sp := g.tel.StartSpan(ctx, "gateway.dispatch").Note(string(o.msg))
	defer sp.End()
	var none Rep
	if o.serverOnly != "" && !c.asServer {
		return none, fmt.Errorf("%w: %s", ErrNotPermitted, o.serverOnly)
	}
	if f := g.fed.Load(); f != nil {
		peer, fwd, err := o.relayTo(g, f, c, req)
		if err != nil {
			return none, err
		}
		if peer != "" {
			var reply Rep
			err := f.Relay(ctx, peer, o.msg, fwd, &reply)
			return reply, err
		}
	}
	return o.local(g, ctx, c, req)
}

// relayTo names the peer gateway a request must be relayed to ("" = serve
// it here) and the request as forwarded.
func (o *op[Req, Rep]) relayTo(g *Gateway, f *federation.Federation, c caller, req Req) (core.Usite, Req, error) {
	switch {
	case o.job != nil:
		peer, err := g.fedRoute(f, c, o.job(req))
		return peer, req, err
	case o.handle != nil:
		h, fwd := o.handle(req, c.dn)
		peer, err := g.fedStageRelay(f, c, h)
		return peer, fwd, err
	}
	return "", req, nil
}

// envelope is the signed-envelope door: decode the JSON payload, then serve.
func (o *op[Req, Rep]) envelope(g *Gateway, ctx context.Context, c caller, raw json.RawMessage) (any, error) {
	var req Req
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, fmt.Errorf("gateway: bad %s request: %w", o.msg, err)
	}
	return o.serve(g, ctx, c, req)
}

func (o *op[Req, Rep]) request() protocol.MsgType { return o.msg }

// route is a row with its request and reply types erased — what
// HandleContext holds after a table lookup.
type route interface {
	request() protocol.MsgType
	envelope(g *Gateway, ctx context.Context, c caller, raw json.RawMessage) (any, error)
}

// unknownType is the one bucket every request type outside the table is
// counted and refused under: a sender picks the type string, so counting it
// verbatim would let one authenticated peer mint unbounded metric series.
const unknownType protocol.MsgType = "unknown"

// The rows, named for the Stream* methods in stream.go: every op but
// federation gossip also rides the frame stream.
var (
	opConsign = &op[protocol.ConsignRequest, protocol.ConsignReply]{
		msg:   protocol.MsgConsign,
		local: (*Gateway).consign,
	}
	opPoll = &op[protocol.PollRequest, protocol.PollReply]{
		msg: protocol.MsgPoll,
		job: func(req protocol.PollRequest) core.JobID { return req.Job },
		local: func(g *Gateway, _ context.Context, c caller, req protocol.PollRequest) (protocol.PollReply, error) {
			return g.svc().Poll(c.dn, c.asServer, req.Job)
		},
	}
	opOutcome = &op[protocol.OutcomeRequest, protocol.OutcomeReply]{
		msg:   protocol.MsgOutcome,
		job:   func(req protocol.OutcomeRequest) core.JobID { return req.Job },
		local: (*Gateway).outcome,
	}
	opList = &op[protocol.ListRequest, protocol.ListReply]{
		msg: protocol.MsgList,
		local: func(g *Gateway, _ context.Context, c caller, _ protocol.ListRequest) (protocol.ListReply, error) {
			jobs, err := g.svc().List(c.dn)
			return protocol.ListReply{Jobs: jobs}, err
		},
	}
	opControl = &op[protocol.ControlRequest, protocol.ControlReply]{
		msg: protocol.MsgControl,
		job: func(req protocol.ControlRequest) core.JobID { return req.Job },
		local: func(g *Gateway, _ context.Context, c caller, req protocol.ControlRequest) (protocol.ControlReply, error) {
			if err := g.svc().Control(c.dn, c.asServer, req.Job, req.Op); err != nil {
				return protocol.ControlReply{Reason: err.Error()}, nil
			}
			return protocol.ControlReply{OK: true}, nil
		},
	}
	opResources = &op[protocol.ResourcesRequest, protocol.ResourcesReply]{
		msg:   protocol.MsgResources,
		local: (*Gateway).resources,
	}
	// opTransfer is the NJS-to-NJS Uspace read of §5.6.
	opTransfer = &op[protocol.TransferRequest, protocol.TransferReply]{
		msg:        protocol.MsgTransfer,
		serverOnly: "Uspace transfers are NJS-to-NJS traffic",
		job:        func(req protocol.TransferRequest) core.JobID { return req.Job },
		local: func(g *Gateway, _ context.Context, c caller, req protocol.TransferRequest) (protocol.TransferReply, error) {
			return g.svc().FetchFileOwned(c.dn, true, req.Job, req.File, req.Offset, req.Limit)
		},
	}
	opApplet = &op[protocol.AppletRequest, protocol.AppletReply]{
		msg:   protocol.MsgApplet,
		local: (*Gateway).applet,
	}
	opLoad = &op[protocol.LoadRequest, protocol.LoadReply]{
		msg: protocol.MsgLoad,
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
		msg: protocol.MsgFetch,
		job: func(req protocol.FetchRequest) core.JobID { return req.Job },
		local: func(g *Gateway, _ context.Context, c caller, req protocol.FetchRequest) (protocol.TransferReply, error) {
			return g.svc().FetchFileOwned(c.dn, c.asServer, req.Job, req.File, req.Offset, req.Limit)
		},
	}
	// opSubscribe serves one event-batch round. A job-scoped stream of a
	// remotely-placed job relays to the peer (its gateway holds the
	// long-poll); a user's all-jobs stream (empty Job) stays local — it is
	// scoped to this Usite's log.
	opSubscribe = &op[protocol.SubscribeRequest, protocol.EventsReply]{
		msg:   protocol.MsgSubscribe,
		job:   func(req protocol.SubscribeRequest) core.JobID { return req.Job },
		local: (*Gateway).longPollEvents,
	}
	opPutOpen = &op[protocol.PutOpenRequest, protocol.PutOpenReply]{
		msg:   protocol.MsgPutOpen,
		local: (*Gateway).putOpen,
	}
	opPutChunk = &op[protocol.PutChunkRequest, protocol.PutChunkReply]{
		msg: protocol.MsgPutChunk,
		handle: func(req protocol.PutChunkRequest, owner core.DN) (string, protocol.PutChunkRequest) {
			req.Owner = owner
			return req.Handle, req
		},
		local: func(g *Gateway, _ context.Context, c caller, req protocol.PutChunkRequest) (protocol.PutChunkReply, error) {
			return g.svc().StageChunk(stageOwner(c, req.Owner), c.asServer, req)
		},
	}
	opPutCommit = &op[protocol.PutCommitRequest, protocol.PutCommitReply]{
		msg: protocol.MsgPutCommit,
		handle: func(req protocol.PutCommitRequest, owner core.DN) (string, protocol.PutCommitRequest) {
			req.Owner = owner
			return req.Handle, req
		},
		local: func(g *Gateway, _ context.Context, c caller, req protocol.PutCommitRequest) (protocol.PutCommitReply, error) {
			return g.svc().StageCommit(stageOwner(c, req.Owner), c.asServer, req)
		},
	}
	opMetrics = &op[protocol.MetricsRequest, protocol.MetricsReply]{
		msg:   protocol.MsgMetrics,
		local: (*Gateway).metrics,
	}
)

// ops is the operation table. The reply type that answers each request type
// is the protocol's to say (protocol.ReplyType).
var ops = table(
	opConsign, opPoll, opOutcome, opList, opControl, opResources, opTransfer, opApplet, opLoad,
	opFetch, opSubscribe, opPutOpen, opPutChunk, opPutCommit, opMetrics,
	// Only peer gateways may gossip, and only a federated gateway answers.
	&op[protocol.FedAdvertiseRequest, protocol.FedAdvertiseReply]{
		msg:        protocol.MsgFedAdvertise,
		serverOnly: "federation gossip is gateway-to-gateway traffic",
		local: func(g *Gateway, _ context.Context, _ caller, req protocol.FedAdvertiseRequest) (protocol.FedAdvertiseReply, error) {
			f := g.fed.Load()
			if f == nil {
				return protocol.FedAdvertiseReply{}, federation.ErrNotFederated
			}
			return f.HandleAdvertise(req), nil
		},
	},
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

// outcome returns a job's outcome tree in its wire encoding — encoded here,
// once, whichever door the request came through.
func (g *Gateway) outcome(_ context.Context, c caller, req protocol.OutcomeRequest) (protocol.OutcomeReply, error) {
	o, found, err := g.svc().Outcome(c.dn, c.asServer, req.Job)
	if err != nil || !found {
		return protocol.OutcomeReply{}, err
	}
	enc, err := ajo.MarshalOutcome(o)
	return protocol.OutcomeReply{Found: true, Outcome: enc}, err
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
	return g.svc().StageOpen(stageOwner(c, req.Owner), c.asServer, req)
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
