// Package federation peers gateways into a grid — the step beyond one
// gateway fronting one Usite that the paper names as the goal of the
// follow-on project (§6): UNICORE sites run by different administrations
// cooperating so that "the best system for an application" may sit behind
// somebody else's gateway.
//
// The design keeps the paper's trust model intact. Peered gateways
// authenticate each other with server-role credentials under the shared CA;
// no new wire security is introduced. Four mechanisms ride on top:
//
//   - Gossip: each gateway periodically pushes its advertisement — resource
//     pages, live Replicas/Healthy load, and an accounting charge-back
//     summary, stamped with a monotonically increasing epoch — to its
//     configured peers as a stream frame (protocol.OpAdvertise), on the one
//     stream per peer that forwarding also rides, and ingests the replies.
//     Ads relay transitively with a hop count, so a grid does not need a
//     full mesh of static peer entries.
//   - Ranking: a federation-aware broker pass fuses the local catalog with
//     every fresh peer advertisement, cost-weighting remote sites by hop
//     distance and accounting usage, so a job may be sent to a peer Usite.
//   - Forwarding: a consign sent to a peer rides a stream frame to the peer
//     gateway under the forwarding gateway's server identity, preserving
//     the durable-ack contract end to end — the origin acks only with the
//     remote NJS's journaled ack, and consign IDs are namespaced per origin
//     so a client retry converges on the same remote job.
//   - Relaying by name: a job ID and a staged-upload handle are both minted
//     under their Usite, so a call scoped to either finds its peer by the
//     name alone (JobSite, HandleSite). A user's call goes out on a stream
//     acting for that user (protocol.DoFor), and the NJS that holds the job
//     or upload judges it as the user's own; the origin keeps no record of
//     what it sent.
//
// Staleness is judged with the receiver's clock, never the sender's stamp:
// administrative domains do not share a clock, and a peer that stops
// gossiping must drop out of placement no matter what its last ad claimed.
package federation

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"unicore/internal/accounting"
	"unicore/internal/ajo"
	"unicore/internal/broker"
	"unicore/internal/core"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/sim"
	"unicore/internal/staging"
	"unicore/internal/telemetry"
)

// DefaultStaleAfter is how long a peer advertisement stays placeable
// without renewal, judged on the receiver's clock.
const DefaultStaleAfter = 5 * time.Minute

// hopCost is the placement penalty per gateway hop, in broker site-cost
// units (see broker.SetSiteCost): forwarding is cheap but not free, so a
// local Vsite wins ties and a transitively-learned site needs a real
// capacity advantage to attract work.
const hopCost = 0.25

// chargeSoftCap scales the accounting charge-back weight: a peer that has
// already absorbed this many charge units (GFlop-seconds of nominal
// capacity) carries half the maximum usage penalty. The penalty saturates
// below one site-cost unit, so charge-back biases placement without ever
// starving a site.
const chargeSoftCap = 1000.0

// Errors reported by the federation layer.
var (
	ErrNotFederated = errors.New("federation: gateway has no federation configured")
	ErrUnknownPeer  = errors.New("federation: target Usite is not a known peer")
)

// Config assembles a gateway's federation half.
type Config struct {
	// Usite and URL identify this gateway in its own advertisements; URL is
	// what peers dial to forward work here.
	Usite core.Usite
	URL   string
	// Client is a server-credentialled protocol client for gossip and
	// forwarding. Peer URLs learned from ads are registered into its
	// registry, so transitive peers become directly dialable.
	Client *protocol.Client
	// Clock drives the gossip loop and staleness judgments.
	Clock sim.Scheduler
	// Usage supplies the local charge-back summary carried in self-ads.
	// Nil means no accounting figures are advertised.
	Usage func() accounting.Summary
}

// peerState is everything known about one peer gateway.
type peerState struct {
	url    string
	direct bool // statically configured: a gossip target
	have   bool
	ad     protocol.FedAd
	seen   time.Time // local receipt clock, the staleness basis
}

// Federation is one gateway's membership in a multi-gateway grid.
type Federation struct {
	cfg Config
	reg *telemetry.Registry

	// pages and loads read the local serving tier; the gateway binds them
	// (BindLocal) so this package never imports the server stack.
	localMu sync.Mutex
	pages   func() []resources.Page
	loads   func() map[string]protocol.VsiteLoad

	mu      sync.Mutex
	epoch   uint64
	peers   map[core.Usite]*peerState
	timer   sim.Timer
	stopped bool
}

// New builds a federation membership. It starts idle: add peers, bind the
// local tier, then Start the gossip loop (or drive GossipOnce manually).
func New(cfg Config) (*Federation, error) {
	if cfg.Usite == "" {
		return nil, errors.New("federation: empty usite")
	}
	if cfg.Client == nil {
		return nil, errors.New("federation: nil protocol client")
	}
	if cfg.Clock == nil {
		return nil, errors.New("federation: nil clock")
	}
	f := &Federation{
		cfg:   cfg,
		reg:   telemetry.New("federation/" + string(cfg.Usite)),
		peers: make(map[core.Usite]*peerState),
	}
	f.reg.SetNow(cfg.Clock.Now)
	return f, nil
}

// Registry exposes the federation's telemetry (fed_advertise_total,
// fed_forward_total, fed_forward_ack_seconds, fed_peer_stale).
func (f *Federation) Registry() *telemetry.Registry { return f.reg }

// BindLocal wires the local serving tier in: pages lists the local resource
// catalog, loads the per-Vsite live load. The gateway calls this when the
// federation is attached.
func (f *Federation) BindLocal(pages func() []resources.Page, loads func() map[string]protocol.VsiteLoad) {
	f.localMu.Lock()
	defer f.localMu.Unlock()
	f.pages = pages
	f.loads = loads
}

// AddPeer statically configures a peer gateway (topology `peers` block or
// -peer flag). Direct peers are gossip targets; everything else is learned.
func (f *Federation) AddPeer(u core.Usite, url string) error {
	if u == "" || url == "" {
		return errors.New("federation: peer needs a usite and a url")
	}
	if u == f.cfg.Usite {
		return fmt.Errorf("federation: %s cannot peer with itself", u)
	}
	f.mu.Lock()
	ps := f.peers[u]
	if ps == nil {
		ps = &peerState{}
		f.peers[u] = ps
	}
	ps.url = url
	ps.direct = true
	f.mu.Unlock()
	f.cfg.Client.Registry().Add(u, url)
	f.updateStaleGauge()
	return nil
}

// Peers lists the statically configured (direct) peers, sorted.
func (f *Federation) Peers() []core.Usite {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []core.Usite
	for u, ps := range f.peers {
		if ps.direct {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SelfAd builds this gateway's advertisement: a fresh epoch over the local
// pages, loads, and charge-back summary.
func (f *Federation) SelfAd() protocol.FedAd {
	f.localMu.Lock()
	pages, loads := f.pages, f.loads
	f.localMu.Unlock()
	f.mu.Lock()
	f.epoch++
	ad := protocol.FedAd{
		Origin: f.cfg.Usite,
		URL:    f.cfg.URL,
		Epoch:  f.epoch,
		Stamp:  f.cfg.Clock.Now(),
	}
	f.mu.Unlock()
	if pages != nil {
		for _, p := range pages() {
			if der, err := p.MarshalASN1(); err == nil {
				ad.PagesDER = append(ad.PagesDER, der)
			}
		}
	}
	if loads != nil {
		ad.Loads = loads()
	}
	if f.cfg.Usage != nil {
		sum := f.cfg.Usage()
		ad.Jobs = sum.Jobs
		ad.Charge = sum.Charge
	}
	return ad
}

// fresh reports whether a peer's ad is recent enough to act on.
// Callers hold f.mu.
func (f *Federation) freshLocked(ps *peerState) bool {
	return ps.have && f.cfg.Clock.Now().Sub(ps.seen) <= DefaultStaleAfter
}

// KnownAds is the gossip payload: the self-ad followed by every fresh peer
// ad this gateway holds, in stable origin order.
func (f *Federation) KnownAds() []protocol.FedAd {
	ads := []protocol.FedAd{f.SelfAd()}
	f.mu.Lock()
	var origins []core.Usite
	for u := range f.peers {
		origins = append(origins, u)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, u := range origins {
		if ps := f.peers[u]; f.freshLocked(ps) {
			ads = append(ads, ps.ad)
		}
	}
	f.mu.Unlock()
	return ads
}

// ingest folds one received advertisement into the peer table. The hop
// count increments on receipt — it measures distance from the origin to
// the holder of the table. A newer epoch always wins; the same epoch via a
// shorter relay path wins too.
func (f *Federation) ingest(ad protocol.FedAd) {
	if ad.Origin == "" || ad.Origin == f.cfg.Usite {
		return
	}
	ad.Hops++
	f.mu.Lock()
	ps := f.peers[ad.Origin]
	if ps == nil {
		ps = &peerState{}
		f.peers[ad.Origin] = ps
	}
	if ps.have && (ad.Epoch < ps.ad.Epoch || (ad.Epoch == ps.ad.Epoch && ad.Hops >= ps.ad.Hops)) {
		// Not newer and not a shorter path — but the origin is alive
		// somewhere behind this relay, so the renewal still counts against
		// staleness when the epoch matches.
		if ad.Epoch == ps.ad.Epoch {
			ps.seen = f.cfg.Clock.Now()
		}
		f.mu.Unlock()
		return
	}
	ps.ad = ad
	ps.have = true
	ps.seen = f.cfg.Clock.Now()
	if ad.URL != "" && ps.url == "" {
		ps.url = ad.URL
	}
	url := ps.url
	f.mu.Unlock()
	if url != "" {
		// Learned peers become directly dialable: forwarding never needs to
		// route a consign through an intermediate gateway.
		f.cfg.Client.Registry().Add(ad.Origin, url)
	}
}

// HandleAdvertise serves one inbound gossip exchange (the gateway's
// OpAdvertise row): ingest the sender's view, answer with ours.
func (f *Federation) HandleAdvertise(req protocol.FedAdvertiseRequest) protocol.FedAdvertiseReply {
	for _, ad := range req.Ads {
		f.ingest(ad)
	}
	f.reg.Counter("fed_advertise_total", "peer", string(req.From), "dir", "in").Inc()
	f.updateStaleGauge()
	return protocol.FedAdvertiseReply{Ads: f.KnownAds()}
}

// GossipOnce pushes this gateway's view to every direct peer and ingests
// their replies. Per-peer failures are collected, not fatal: an unreachable
// peer merely goes stale.
func (f *Federation) GossipOnce(ctx context.Context) error {
	peers := f.Peers()
	var errs []error
	for _, u := range peers {
		ads := f.KnownAds()
		var reply protocol.FedAdvertiseReply
		err := protocol.Do(ctx, f.cfg.Client, u, protocol.OpAdvertise,
			protocol.FedAdvertiseRequest{From: f.cfg.Usite, Ads: ads}, &reply)
		if err != nil {
			errs = append(errs, fmt.Errorf("federation: gossip to %s: %w", u, err))
			continue
		}
		f.reg.Counter("fed_advertise_total", "peer", string(u), "dir", "out").Inc()
		for _, ad := range reply.Ads {
			f.ingest(ad)
		}
	}
	f.updateStaleGauge()
	return errors.Join(errs...)
}

// updateStaleGauge recounts direct peers whose ads have expired (or never
// arrived) — the fed_peer_stale gauge an operator alerts on.
func (f *Federation) updateStaleGauge() {
	f.mu.Lock()
	var stale int64
	for _, ps := range f.peers {
		if ps.direct && !f.freshLocked(ps) {
			stale++
		}
	}
	f.mu.Unlock()
	f.reg.Gauge("fed_peer_stale").Set(stale)
}

// Start arms the periodic gossip loop on the federation's clock.
func (f *Federation) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Minute
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stopped = false
	if f.timer != nil {
		return
	}
	f.timer = f.cfg.Clock.AfterFunc(interval, func() { f.gossipTick(interval) })
}

// gossipTick runs one gossip round and re-arms.
func (f *Federation) gossipTick(interval time.Duration) {
	f.mu.Lock()
	if f.stopped {
		f.timer = nil
		f.mu.Unlock()
		return
	}
	f.mu.Unlock()
	_ = f.GossipOnce(context.Background())
	f.mu.Lock()
	if f.stopped {
		f.timer = nil
	} else {
		f.timer = f.cfg.Clock.AfterFunc(interval, func() { f.gossipTick(interval) })
	}
	f.mu.Unlock()
}

// Stop disarms the gossip loop.
func (f *Federation) Stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stopped = true
	if f.timer != nil {
		f.timer.Stop()
		f.timer = nil
	}
}

// Place ranks every placeable Vsite — local ones plus those in fresh peer
// advertisements — for the request. Remote candidates carry an additive
// site cost of hopCost per gateway hop plus a saturating charge-back
// penalty, so the local site wins ties and heavily-charged peers shed work.
// Candidates are ranked least-loaded first.
func (f *Federation) Place(req resources.Request, software ...resources.Software) ([]broker.Candidate, error) {
	b := broker.New(broker.LeastLoaded)
	f.localMu.Lock()
	pages, loads := f.pages, f.loads
	f.localMu.Unlock()
	if pages != nil {
		for _, p := range pages() {
			page := p
			b.AddPage(&page)
		}
	}
	if loads != nil {
		for vs, vl := range loads() {
			b.SetLoad(core.Target{Usite: f.cfg.Usite, Vsite: core.Vsite(vs)}, loadOf(vl))
		}
	}
	f.mu.Lock()
	for u, ps := range f.peers {
		if !f.freshLocked(ps) {
			continue
		}
		for _, der := range ps.ad.PagesDER {
			if page, err := resources.UnmarshalASN1(der); err == nil && page.Target.Usite == u {
				b.AddPage(page)
			}
		}
		for vs, vl := range ps.ad.Loads {
			b.SetLoad(core.Target{Usite: u, Vsite: core.Vsite(vs)}, loadOf(vl))
		}
		b.SetSiteCost(u, hopCost*float64(ps.ad.Hops)+ps.ad.Charge/(ps.ad.Charge+chargeSoftCap))
	}
	f.mu.Unlock()
	return b.Candidates(req, software...)
}

// loadOf converts a wire load report into the broker's form.
func loadOf(vl protocol.VsiteLoad) broker.Load {
	return broker.Load{
		Load: vl.Load, Pending: vl.Pending, Inflight: vl.Inflight,
		Replicas: vl.Replicas, Healthy: vl.Healthy,
	}
}

// JobSite resolves which known site minted a job ID (IDs are prefixed with
// the accepting NJS's Usite). It returns "" for local or unrecognized IDs;
// the longest matching site name wins, so hyphenated Usites stay
// unambiguous among the sites this gateway knows.
func (f *Federation) JobSite(id core.JobID) core.Usite {
	f.mu.Lock()
	defer f.mu.Unlock()
	var best core.Usite
	match := func(u core.Usite) {
		if strings.HasPrefix(string(id), string(u)+"-") && len(u) > len(best) {
			best = u
		}
	}
	match(f.cfg.Usite)
	for u := range f.peers {
		match(u)
	}
	if best == f.cfg.Usite {
		return ""
	}
	return best
}

// HandleSite resolves which known site minted a staged-upload handle. A
// spool mints its handles under its Usite as an NJS mints job IDs
// ("stg-DWD-SP2-00000001"), so the name after the prefix reads as a job ID.
func (f *Federation) HandleSite(handle string) core.Usite {
	name, ok := strings.CutPrefix(handle, staging.HandlePrefix)
	if !ok {
		return ""
	}
	return f.JobSite(core.JobID(name))
}

// VsiteHost resolves which fresh peer advertises a Vsite by that name. The
// answer must be unique — with two peers advertising the same Vsite name
// the caller has to target by full Usite/Vsite instead.
func (f *Federation) VsiteHost(v core.Vsite) (core.Usite, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var found core.Usite
	for u, ps := range f.peers {
		if !f.freshLocked(ps) {
			continue
		}
		if _, ok := ps.ad.Loads[string(v)]; !ok {
			continue
		}
		if found != "" {
			return "", fmt.Errorf("federation: Vsite %q is advertised by both %s and %s — target it as USITE/VSITE", v, found, u)
		}
		found = u
	}
	if found == "" {
		return "", fmt.Errorf("%w: no fresh peer advertises Vsite %q", ErrUnknownPeer, v)
	}
	return found, nil
}

// NamespaceConsignID prefixes a client-chosen consign ID with the
// forwarding origin, so dedupe keys from different origins can never
// collide at the remote NJS while a retry from the same origin still
// converges on the same job.
func NamespaceConsignID(origin core.Usite, id string) string {
	if id == "" {
		return ""
	}
	return fmt.Sprintf("fed/%s/%s", origin, id)
}

// Forward consigns a job to the peer gateway fronting target t, under this
// gateway's server identity and on behalf of owner. The returned reply is
// the remote site's own ack — Accepted only once the remote NJS journaled
// the admission — so the origin's durable-ack promise survives the extra
// hop. A transport failure returns an error and the origin must answer
// not-accepted: the client's retry re-forwards under the same namespaced
// consign ID and converges on the remote NJS's dedupe. Nothing is recorded:
// the job's ID names the peer (JobSite), and the peer's NJS its owner.
func (f *Federation) Forward(ctx context.Context, owner core.DN, consignID string, job *ajo.AbstractJob, t core.Target) (protocol.ConsignReply, error) {
	if t.Usite == "" || t.Usite == f.cfg.Usite {
		return protocol.ConsignReply{}, fmt.Errorf("federation: Forward wants a remote target, got %q", t)
	}
	f.mu.Lock()
	_, known := f.peers[t.Usite]
	f.mu.Unlock()
	if !known {
		return protocol.ConsignReply{}, fmt.Errorf("%w: %s", ErrUnknownPeer, t.Usite)
	}
	job.UserDN = owner
	broker.Retarget(job, t)
	raw, err := ajo.Marshal(job)
	if err != nil {
		return protocol.ConsignReply{}, fmt.Errorf("federation: encoding forwarded job: %w", err)
	}
	var reply protocol.ConsignReply
	start := time.Now()
	err = protocol.Do(ctx, f.cfg.Client, t.Usite, protocol.OpConsign, protocol.ConsignRequest{
		ConsignID: NamespaceConsignID(f.cfg.Usite, consignID),
		AJO:       raw,
	}, &reply)
	if err != nil {
		f.reg.Counter("fed_forward_errors_total", "peer", string(t.Usite)).Inc()
		return protocol.ConsignReply{}, fmt.Errorf("federation: forwarding to %s: %w", t.Usite, err)
	}
	f.reg.Counter("fed_forward_total", "peer", string(t.Usite)).Inc()
	f.reg.Histogram("fed_forward_ack_seconds", telemetry.ScaleSeconds).Observe(time.Since(start).Seconds())
	return reply, nil
}

// Relay performs one job- or upload-scoped protocol call against a peer
// gateway, on a stream acting for user: the peer's NJS judges it as the
// user's own call. An empty user relays under this gateway's server
// identity (a server's call is relayed as the server).
func Relay[Req, Rep any](ctx context.Context, f *Federation, peer core.Usite, user core.DN, op *protocol.Op[Req, Rep], req Req, rep *Rep) error {
	return protocol.DoFor(ctx, f.cfg.Client, peer, user, op, req, rep)
}

// StagedSite resolves the site constraint a job's staged-upload handles
// impose: "" means every referenced handle (if any) is local, a Usite means
// every handle names that one peer, and an error means the handles straddle
// sites — such a job cannot run anywhere.
func (f *Federation) StagedSite(job *ajo.AbstractJob) (core.Usite, error) {
	var site core.Usite
	local := false
	for _, h := range job.StagedHandles() {
		peer := f.HandleSite(h)
		if peer == "" {
			local = true
			continue
		}
		if site == "" {
			site = peer
		} else if site != peer {
			return "", fmt.Errorf("federation: staged inputs straddle %s and %s", site, peer)
		}
	}
	if local && site != "" {
		return "", fmt.Errorf("federation: staged inputs straddle %s and %s", f.cfg.Usite, site)
	}
	return site, nil
}
