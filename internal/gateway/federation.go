package gateway

// The gateway's federation half: attaching a federation membership, serving
// the gossip exchange, broker-driven placement and cross-gateway forwarding
// of consigns, and the proxying rules for job-scoped and staging calls that
// concern a remotely-placed job.
//
// Division of labour: package federation owns the peer table, gossip state,
// placement broker, and forwarding client; this file owns every policy
// decision that needs the request's authentication context (who signed,
// user or server role) — exactly the judgments the paper assigns to the
// gateway tier.

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

// fedRoute names the peer gateway a job-scoped request (poll, outcome,
// control, fetch, transfer, job events) must be relayed to — the one whose
// NJS minted the job ID — or "" when the job is local. Peer servers relay
// freely; a user is relayed only when this gateway's placement record shows
// it forwarded that job for them — the proxying rule that keeps origin-side
// authorization intact even though the relay itself travels under the
// gateway's server identity.
func (g *Gateway) fedRoute(f *federation.Federation, c caller, job core.JobID) (core.Usite, error) {
	if job == "" {
		return "", nil
	}
	peer := f.JobSite(job)
	if peer == "" || c.asServer {
		return peer, nil
	}
	if pl, ok := f.Placement(job); ok && pl.Owner == c.dn {
		return peer, nil
	}
	return "", fmt.Errorf("gateway: job %s was not placed through this gateway", job)
}

// stageOwner resolves the effective owner of a staging call: a server-role
// relay may carry the user it acts for (the consign UserDN rule applied to
// spools); everyone else owns their own uploads.
func stageOwner(c caller, owner core.DN) core.DN {
	if c.asServer && owner != "" {
		return owner
	}
	return c.dn
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

// fedStageOpen relays a user's staged upload toward the unique fresh peer
// advertising the Vsite, pinning the returned handle so chunks, commits,
// and the eventual consign follow it there. It returns handled=false when
// the upload is local (or no peer advertises the Vsite — the local error
// is the clearer one).
func (g *Gateway) fedStageOpen(ctx context.Context, c caller, req protocol.PutOpenRequest) (reply protocol.PutOpenReply, handled bool, err error) {
	f := g.fed.Load()
	if f == nil || c.asServer || g.servesVsite(req.Vsite) {
		return reply, false, nil
	}
	peer, err := f.VsiteHost(req.Vsite)
	if err != nil {
		return reply, false, nil
	}
	req.Owner = c.dn
	if err := federation.Relay(ctx, f, peer, protocol.OpPutOpen, req, &reply); err != nil {
		return reply, true, fmt.Errorf("gateway: relaying staged upload to %s: %w", peer, err)
	}
	f.PinStage(reply.Handle, peer, c.dn)
	return reply, true, nil
}

// fedStageRelay names the peer gateway a chunk or commit must be relayed to
// — the one its handle is pinned to — or "" when the upload is local. Only
// the user who opened the upload may follow it.
func (g *Gateway) fedStageRelay(f *federation.Federation, c caller, handle string) (core.Usite, error) {
	if c.asServer {
		return "", nil
	}
	pin, ok := f.StagePeer(handle)
	if !ok {
		return "", nil
	}
	if pin.Owner != c.dn {
		return "", fmt.Errorf("gateway: staged upload %s is not owned by %s", handle, c.dn)
	}
	return pin.Peer, nil
}
