// Protocol v3 stream serving: the gateway's half of the persistent
// multiplexed frame transport, the one door every op comes in by. The HTTP
// upgrade at /unicore/v3 hands the raw connection to
// protocol.ServeStreamConn, with the hello check below and the gateway's
// frame handlers: one per row of the operation table (ops.go), registered
// when the gateway is built. Stream traffic is observable through
// dedicated telemetry counters (gateway_stream_*) and never counts into
// gateway_requests_total, which counts only in-process HandleContext calls.
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
	protocol.ServeStreamConn(ctx, conn, g, g.frames, protocol.StreamServerOpts{
		Cred:  g.cred,
		Usite: g.usite,
		CA:    g.ca,
		OnFrame: func(kind byte) {
			g.tel.Counter("gateway_stream_frames_total", "kind", protocol.FrameKindName(kind)).Inc()
		},
	})
}

// StreamHello authenticates one Hello envelope: signature verification, role
// policy and site-specific authentication, performed once and bound to the
// connection. Revocation is the one
// check a stream repeats: ServeStream hands the CA to the stream, which
// re-asks it about the hello's certificate whenever a revocation happened.
func (g *Gateway) StreamHello(hello []byte) (protocol.Opened, []byte) {
	o, refusal := g.authenticate(hello)
	if refusal == nil {
		g.tel.Counter("gateway_stream_hellos_total", "role", string(o.Role)).Inc()
	}
	return o, refusal
}

// StreamConsign runs the consign row as a frame does. It and StreamPoll stay
// only for the benchmark's gateway probes, until ROADMAP item 1.
func (g *Gateway) StreamConsign(ctx context.Context, dn core.DN, asServer bool, req protocol.ConsignRequest) (protocol.ConsignReply, error) {
	return opConsign.serve(g, ctx, caller{dn, asServer}, req)
}

// StreamPoll runs the poll row as a frame does (see StreamConsign).
func (g *Gateway) StreamPoll(ctx context.Context, dn core.DN, asServer bool, req protocol.PollRequest) (protocol.PollReply, error) {
	return opPoll.serve(g, ctx, caller{dn, asServer}, req)
}
