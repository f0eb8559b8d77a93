package gateway

// The gateway's federation half: attaching a federation membership, serving
// the gossip exchange, broker-driven placement and cross-gateway forwarding
// of consigns, and relaying a staged upload's open to the peer fronting its
// Vsite. Job- and upload-scoped calls follow their name (op.serve) and are
// judged by the NJS that holds the job or upload, as the user they act for.
//
// Division of labour: package federation owns the peer table, gossip state,
// placement broker, and forwarding client; this file owns the placement
// decisions that need the request's authentication context (who signed,
// user or server role).

import (
	"context"
	"fmt"

	"unicore/internal/ajo"
	"unicore/internal/broker"
	"unicore/internal/core"
	"unicore/internal/federation"
	"unicore/internal/njs"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/telemetry"
)

// SetFederation attaches a federation membership: the federation reads the
// local catalog and load through the gateway, and its telemetry registry
// (fed_advertise_total, fed_forward_total, fed_forward_ack_seconds,
// fed_peer_stale) joins MsgMetrics scrapes. Passing nil detaches.
func (g *Gateway) SetFederation(f *federation.Federation) {
	if f == nil {
		g.fed.Store(nil)
		return
	}
	f.BindLocal(
		func() []resources.Page { return g.svc().Pages() },
		func() map[string]protocol.VsiteLoad { return g.vsiteLoadsOf(g.svc()) },
	)
	g.AddMetricsSource(func() []telemetry.Snapshot {
		return []telemetry.Snapshot{f.Registry().Snapshot()}
	})
	g.fed.Store(f)
}

// vsiteLoadsOf snapshots one backend's per-Vsite load in wire form (shared
// by the MsgLoad reply and the federation's self-advertisements).
func (g *Gateway) vsiteLoadsOf(svc njs.Service) map[string]protocol.VsiteLoad {
	loads := svc.VsiteLoads()
	out := make(map[string]protocol.VsiteLoad, len(loads))
	for v, l := range loads {
		out[string(v)] = protocol.VsiteLoad{
			Load: l.Load, Pending: l.Pending, Inflight: l.Inflight,
			Replicas: l.Replicas, Healthy: l.Healthy,
		}
	}
	return out
}

// fedConsign applies federation policy to one decoded consign before local
// admission. It returns handled=false when the job should continue into the
// local NJS (possibly retargeted by auto-placement); handled=true when it
// produced the reply itself (a forward, or a refusal).
func (g *Gateway) fedConsign(ctx context.Context, f *federation.Federation, consignID string, job *ajo.AbstractJob, owner core.DN, asServer bool) (reply protocol.ConsignReply, handled bool, err error) {
	if asServer {
		// Server-to-server consigns — a peer gateway's forward or an NJS
		// distributing a sub-job — must target the receiving site. Anything
		// else would let a misrouted forward bounce between gateways.
		if job.Target.Usite != "" && job.Target.Usite != g.usite {
			return reply, true, fmt.Errorf("gateway: server consignment for %s arrived at %s (forwarding loop refused)", job.Target.Usite, g.usite)
		}
		return reply, false, nil
	}
	stagedAt, err := f.StagedSite(job)
	if err != nil {
		return reply, true, err
	}
	stagedLocally := stagedAt == "" && len(job.StagedHandles()) > 0
	target := job.Target
	if target.Vsite == "" && (target.Usite == "" || target.Usite == g.usite) {
		// Auto placement (`unicore-submit -site auto`): rank every local
		// and advertised Vsite, honouring where the job's staged inputs
		// are spooled.
		cands, err := f.Place(job.MaxResources())
		if err != nil {
			return reply, true, err
		}
		target = core.Target{}
		for _, c := range cands {
			if stagedAt != "" && c.Target.Usite != stagedAt {
				continue
			}
			if stagedLocally && c.Target.Usite != g.usite {
				continue
			}
			target = c.Target
			break
		}
		if target.Usite == "" {
			return reply, true, fmt.Errorf("%w: none of the %d candidates can reach the job's staged inputs", broker.ErrNoCandidate, len(cands))
		}
		if target.Usite == g.usite {
			broker.Retarget(job, target)
			return reply, false, nil
		}
	}
	if target.Usite == "" || target.Usite == g.usite {
		if stagedAt != "" {
			return reply, true, fmt.Errorf("gateway: job targets %s but its staged inputs are spooled at %s", g.usite, stagedAt)
		}
		return reply, false, nil
	}
	// The job runs at a peer. Its staged inputs must already be there.
	if stagedLocally {
		return reply, true, fmt.Errorf("gateway: job targets %s but its staged inputs are spooled at %s", target.Usite, g.usite)
	}
	if stagedAt != "" && stagedAt != target.Usite {
		return reply, true, fmt.Errorf("gateway: job targets %s but its staged inputs are spooled at %s", target.Usite, stagedAt)
	}
	reply, err = f.Forward(ctx, owner, consignID, job, target)
	if err != nil {
		// The forward did not come back with a journaled ack: answer
		// not-accepted so the client retries — the namespaced consign ID
		// converges on the same remote job once the peer is back.
		return protocol.ConsignReply{Accepted: false, Reason: err.Error()}, true, nil
	}
	return reply, true, nil
}

// servesVsite reports whether the local backend fronts the named Vsite.
func (g *Gateway) servesVsite(v core.Vsite) bool {
	for _, p := range g.svc().Pages() {
		if p.Target.Vsite == v {
			return true
		}
	}
	return false
}

// fedStageOpen relays a user's staged upload, acting for the user, toward
// the unique fresh peer advertising the Vsite. The peer's spool mints the
// handle under its Usite, so chunks, commits and the eventual consign follow
// the handle there by name. It returns handled=false when the upload is
// local (or no peer advertises the Vsite — the local error is the clearer
// one).
func (g *Gateway) fedStageOpen(ctx context.Context, c caller, req protocol.PutOpenRequest) (reply protocol.PutOpenReply, handled bool, err error) {
	f := g.fed.Load()
	if f == nil || c.asServer || g.servesVsite(req.Vsite) {
		return reply, false, nil
	}
	peer, err := f.VsiteHost(req.Vsite)
	if err != nil {
		return reply, false, nil
	}
	if err := federation.Relay(ctx, f, peer, c.dn, protocol.OpPutOpen, req, &reply); err != nil {
		return reply, true, fmt.Errorf("gateway: relaying staged upload to %s: %w", peer, err)
	}
	return reply, true, nil
}
