// Protocol v3 stream serving: the gateway's half of the persistent
// multiplexed frame transport. The HTTP upgrade at /unicore/v3 hands the raw
// connection to protocol.ServeStreamConn; the typed frame handlers below run
// the rows of the operation table (ops.go) that the signed-envelope door
// runs, so authorisation, federation relaying, and error texts are identical
// on both paths. Stream traffic is observable through dedicated telemetry
// counters (gateway_stream_*) and deliberately never counts into
// Stats().ByType — that map remains a census of signed envelopes.
package gateway

import (
	"context"
	"net"
	"net/http"

	"unicore/internal/core"
	"unicore/internal/protocol"
)

// upgradeStream upgrades one GET /unicore/v3 request (Upgrade: unicore-v3) to
// a raw v3 frame stream and returns the hijacked connection; when it cannot,
// it has answered the request.
func upgradeStream(w http.ResponseWriter, r *http.Request) (net.Conn, bool) {
	if r.Header.Get("Upgrade") != protocol.StreamUpgradeProto {
		http.Error(w, "expected Upgrade: "+protocol.StreamUpgradeProto, http.StatusUpgradeRequired)
		return nil, false
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		// A front end that cannot yield the raw connection (recorders, some
		// proxies) has no stream path.
		http.Error(w, "stream upgrade unsupported", http.StatusNotImplemented)
		return nil, false
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		http.Error(w, "hijack failed", http.StatusInternalServerError)
		return nil, false
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\nUpgrade: " + protocol.StreamUpgradeProto + "\r\nConnection: Upgrade\r\n\r\n"
	if _, err := buf.WriteString(resp); err != nil || buf.Flush() != nil {
		conn.Close()
		return nil, false
	}
	return conn, true
}

// ServeStream serves one accepted v3 stream connection — the entry point
// shared by the HTTP upgrade above and in-process transports (testbeds hand
// over one end of a net.Pipe).
func (g *Gateway) ServeStream(ctx context.Context, conn net.Conn) {
	active := g.tel.Gauge("gateway_stream_conns")
	active.Inc()
	defer active.Dec()
	protocol.ServeStreamConn(ctx, conn, g, protocol.StreamServerOpts{
		Cred:  g.cred,
		Usite: g.usite,
		OnFrame: func(kind byte) {
			g.tel.Counter("gateway_stream_frames_total", "kind", protocol.FrameKindName(kind)).Inc()
		},
	})
}

// StreamHello authenticates one Hello envelope: the same verification, role
// policy and site-specific authentication the envelope path applies per
// request, performed once and bound to the connection.
func (g *Gateway) StreamHello(hello []byte) (protocol.Opened, []byte) {
	o, refusal := g.authenticate(hello)
	if refusal == nil {
		g.tel.Counter("gateway_stream_hellos_total", "role", string(o.Role)).Inc()
	}
	return o, refusal
}

// StreamConsign serves one consignment arriving as a frame.
func (g *Gateway) StreamConsign(ctx context.Context, dn core.DN, asServer bool, req protocol.ConsignRequest) (protocol.ConsignReply, error) {
	return opConsign.serve(g, ctx, caller{dn, asServer}, req)
}

// StreamPoll serves one status poll arriving as a frame.
func (g *Gateway) StreamPoll(ctx context.Context, dn core.DN, asServer bool, req protocol.PollRequest) (protocol.PollReply, error) {
	return opPoll.serve(g, ctx, caller{dn, asServer}, req)
}

// StreamOutcome serves one outcome retrieval arriving as a frame.
func (g *Gateway) StreamOutcome(ctx context.Context, dn core.DN, asServer bool, req protocol.OutcomeRequest) (protocol.OutcomeReply, error) {
	return opOutcome.serve(g, ctx, caller{dn, asServer}, req)
}

// StreamList serves one job listing arriving as a frame.
func (g *Gateway) StreamList(ctx context.Context, dn core.DN, asServer bool, req protocol.ListRequest) (protocol.ListReply, error) {
	return opList.serve(g, ctx, caller{dn, asServer}, req)
}

// StreamControl serves one abort, hold or resume arriving as a frame.
func (g *Gateway) StreamControl(ctx context.Context, dn core.DN, asServer bool, req protocol.ControlRequest) (protocol.ControlReply, error) {
	return opControl.serve(g, ctx, caller{dn, asServer}, req)
}

// StreamResources serves the resource pages to a frame caller.
func (g *Gateway) StreamResources(ctx context.Context, dn core.DN, asServer bool, req protocol.ResourcesRequest) (protocol.ResourcesReply, error) {
	return opResources.serve(g, ctx, caller{dn, asServer}, req)
}

// StreamApplet serves one signed applet to a frame caller.
func (g *Gateway) StreamApplet(ctx context.Context, dn core.DN, asServer bool, req protocol.AppletRequest) (protocol.AppletReply, error) {
	return opApplet.serve(g, ctx, caller{dn, asServer}, req)
}

// StreamLoad serves the site's load report to a frame caller.
func (g *Gateway) StreamLoad(ctx context.Context, dn core.DN, asServer bool, req protocol.LoadRequest) (protocol.LoadReply, error) {
	return opLoad.serve(g, ctx, caller{dn, asServer}, req)
}

// StreamPutOpen opens a staged upload for a frame caller.
func (g *Gateway) StreamPutOpen(ctx context.Context, dn core.DN, asServer bool, req protocol.PutOpenRequest) (protocol.PutOpenReply, error) {
	return opPutOpen.serve(g, ctx, caller{dn, asServer}, req)
}

// StreamPutChunk serves one staged-upload chunk arriving as a raw frame —
// the zero-copy upload path: no base64, no per-chunk signature; integrity is
// the per-chunk CRC now and the combined whole-file CRC checked at commit.
func (g *Gateway) StreamPutChunk(ctx context.Context, dn core.DN, asServer bool, req protocol.PutChunkRequest) (protocol.PutChunkReply, error) {
	return opPutChunk.serve(g, ctx, caller{dn, asServer}, req)
}

// StreamPutCommit seals a staged upload for a frame caller, under the
// identity the stream's hello bound — the one its chunks arrived under.
func (g *Gateway) StreamPutCommit(ctx context.Context, dn core.DN, asServer bool, req protocol.PutCommitRequest) (protocol.PutCommitReply, error) {
	return opPutCommit.serve(g, ctx, caller{dn, asServer}, req)
}

// StreamMetrics serves one telemetry scrape arriving as a frame.
func (g *Gateway) StreamMetrics(ctx context.Context, dn core.DN, asServer bool, req protocol.MetricsRequest) (protocol.MetricsReply, error) {
	return opMetrics.serve(g, ctx, caller{dn, asServer}, req)
}

// StreamFetch serves one owner-authorised file read arriving as a frame.
func (g *Gateway) StreamFetch(ctx context.Context, dn core.DN, asServer bool, req protocol.FetchRequest) (protocol.TransferReply, error) {
	return opFetch.serve(g, ctx, caller{dn, asServer}, req)
}

// StreamTransfer serves one NJS-to-NJS Uspace read arriving as a frame.
func (g *Gateway) StreamTransfer(ctx context.Context, dn core.DN, asServer bool, req protocol.TransferRequest) (protocol.TransferReply, error) {
	return opTransfer.serve(g, ctx, caller{dn, asServer}, req)
}

// StreamEvents serves one event-batch round of a stream subscription: the
// same federation routing and long-poll core as an envelope MsgSubscribe.
func (g *Gateway) StreamEvents(ctx context.Context, dn core.DN, asServer bool, req protocol.SubscribeRequest) (protocol.EventsReply, error) {
	return opSubscribe.serve(g, ctx, caller{dn, asServer}, req)
}
