// Package testbedtest is the fault harness tests drive a testbed.Deployment
// with: crash and recover a site's NJS, collect one trace's spans across the
// tiers, and peer gateways into a federation whose gateway processes can be
// killed, restarted or made to lose every reply. None of it is product: a
// deployed site crashes by itself and is healed by its controller.
package testbedtest

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"

	"unicore/internal/accounting"
	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/federation"
	"unicore/internal/journal"
	"unicore/internal/njs"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/telemetry"
	"unicore/internal/testbed"
)

// single resolves a site served by one NJS, the kind crashed and recovered
// by hand; a controller-managed site is healed through its ManagedSite.
func single(d *testbed.Deployment, u core.Usite) (*testbed.Site, error) {
	site, ok := d.Sites[u]
	if !ok {
		return nil, fmt.Errorf("testbedtest: unknown usite %q", u)
	}
	if site.NJS == nil {
		return nil, fmt.Errorf("testbedtest: %s is controller-managed; crash and heal it through its ManagedSite", u)
	}
	return site, nil
}

// host returns the host name a site's gateway is registered under.
func host(d *testbed.Deployment, u core.Usite) (string, error) {
	base, ok := d.Registry.Lookup(u)
	if !ok {
		return "", fmt.Errorf("testbedtest: unknown usite %q", u)
	}
	return strings.TrimPrefix(base, "https://"), nil
}

// serverCred mints a server credential for a site the way the testbed does
// when it deploys the site: issued by the deployment's CA to the gateway's
// name and host.
func serverCred(d *testbed.Deployment, u core.Usite) (*pki.Credential, error) {
	h, err := host(d, u)
	if err != nil {
		return nil, err
	}
	return d.CA.IssueServer("gateway."+strings.ToLower(string(u)), h)
}

// KillSite simulates an NJS process crash at a site: the NJS stops
// journaling and every pending clock callback it owns becomes a no-op. The
// gateway keeps running (the §5.2 split survives an inner restart); calls
// reaching the dead NJS are refused or see its frozen state until
// RestartSite swaps in the recovered one.
func KillSite(d *testbed.Deployment, u core.Usite) error {
	site, err := single(d, u)
	if err != nil {
		return err
	}
	site.NJS.Kill()
	return nil
}

// RestartSite builds a replacement NJS over the journal store — its login
// mapper, a peer client and the journal are part of its construction — puts
// it behind the site's gateway, and resumes the recovered workload.
func RestartSite(d *testbed.Deployment, u core.Usite, store *journal.Store, snapshotEvery int) error {
	site, err := single(d, u)
	if err != nil {
		return err
	}
	cred, err := serverCred(d, u)
	if err != nil {
		return err
	}
	n, err := njs.New(njs.Config{
		Usite:         site.Spec.Usite,
		Clock:         d.Clock,
		Vsites:        site.Spec.Vsites,
		Logins:        site.Users.Map,
		Peers:         protocol.NewClient(d.Net, cred, d.CA, d.Registry),
		Journal:       store,
		SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		return err
	}
	site.Gateway.SetBackend(n)
	site.NJS = n
	n.ResumeRecovered()
	return nil
}

// Trace collects every span recorded under one trace ID at a site, across
// all tiers, ordered by start time — the per-request path of one client call
// (gateway dispatch → pool routing → NJS admission → journal sync).
func Trace(d *testbed.Deployment, u core.Usite, trace string) ([]telemetry.Span, error) {
	snaps, err := d.Metrics(u)
	if err != nil {
		return nil, err
	}
	var spans []telemetry.Span
	for _, s := range snaps {
		spans = append(spans, s.Trace(trace)...)
	}
	telemetry.SortSpans(spans)
	return spans, nil
}

// Mesh is a set of a deployment's gateways peered into a full federation
// mesh. Each gateway's registered host is wrapped in a gate, so
// KillGateway, RestartGateway and BlackholeGateway can simulate gateway
// process failures — including the cruellest one, a gateway that processes a
// forwarded consign but loses the reply, which is how the durable-ack
// contract gets exercised across sites.
type Mesh struct {
	d     *testbed.Deployment
	feds  map[core.Usite]*federation.Federation
	gates map[core.Usite]*gate
}

// EnableFederation peers the named sites' gateways (every site when none are
// named) into a full mesh. Each gateway gets a federation membership
// speaking under a server credential of its site; a split site's is its
// inner gateway's, which its peers reach through its front. No gossip timer is armed —
// drive rounds with GossipAll so tests stay deterministic under the virtual
// clock.
func EnableFederation(d *testbed.Deployment, usites ...core.Usite) (*Mesh, error) {
	if len(usites) == 0 {
		usites = d.Usites()
	}
	m := &Mesh{d: d, feds: map[core.Usite]*federation.Federation{}, gates: map[core.Usite]*gate{}}
	for _, u := range usites {
		site, ok := d.Sites[u]
		if !ok {
			return nil, fmt.Errorf("testbedtest: unknown usite %q", u)
		}
		if _, dup := m.gates[u]; dup {
			continue
		}
		h, err := host(d, u)
		if err != nil {
			return nil, err
		}
		// A split site's peers reach it as its users do: through its front.
		var door protocol.StreamServer = site.Gateway
		if site.Front != nil {
			door = site.Front
		}
		g := newGate(door)
		m.gates[u] = g
		d.Net.Register(h, g)
	}
	for u := range m.gates {
		if err := m.federate(u); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// RebuildFederation gives a federated site's gateway a new federation
// membership, as a restarted gateway process builds one from its topology:
// the same peers, and nothing the old membership learned or sent. Ads come
// back with the next GossipAll.
func (m *Mesh) RebuildFederation(u core.Usite) error {
	if _, ok := m.gates[u]; !ok {
		return fmt.Errorf("testbedtest: %s has no federated gateway", u)
	}
	return m.federate(u)
}

// federate builds u's federation membership, peered with every other site
// of the mesh, and attaches it to u's gateway.
func (m *Mesh) federate(u core.Usite) error {
	h, err := host(m.d, u)
	if err != nil {
		return err
	}
	cred, err := serverCred(m.d, u)
	if err != nil {
		return err
	}
	var peers []deploy.TopologyPeer
	for p := range m.gates {
		if p != u {
			base, _ := m.d.Registry.Lookup(p)
			peers = append(peers, deploy.TopologyPeer{Usite: p, URL: base})
		}
	}
	fed, err := deploy.Federate(m.d.Sites[u].Gateway, protocol.NewClient(m.d.Net, cred, m.d.CA, m.d.Registry),
		m.d.Clock, "https://"+h, peers, func() []accounting.Record { return m.d.SiteAccounting(u) })
	if err != nil {
		return err
	}
	m.feds[u] = fed
	return nil
}

// Federation returns a site's federation membership (nil when the site is
// not in the mesh).
func (m *Mesh) Federation(u core.Usite) *federation.Federation {
	return m.feds[u]
}

// GossipAll runs one gossip round at every federated site, in declaration
// order. Unreachable peers are not fatal — they merely go stale, exactly as
// in production. Two rounds make transitively-learned ads settle.
func (m *Mesh) GossipAll() {
	for _, u := range m.d.Usites() {
		if fed := m.feds[u]; fed != nil {
			_ = fed.GossipOnce(context.Background())
		}
	}
}

// setMode switches a federated site's gateway to a failure mode.
func (m *Mesh) setMode(u core.Usite, mode int32) error {
	g, ok := m.gates[u]
	if !ok {
		return fmt.Errorf("testbedtest: %s has no federated gateway", u)
	}
	g.setMode(mode)
	return nil
}

// KillGateway simulates a crashed gateway process at a federated site: every
// request to its host fails at the transport until RestartGateway. The NJS
// behind it keeps running — kill it separately to crash the whole site.
func (m *Mesh) KillGateway(u core.Usite) error { return m.setMode(u, gateDead) }

// RestartGateway brings a killed (or blackholed) gateway back.
func (m *Mesh) RestartGateway(u core.Usite) error { return m.setMode(u, gateAlive) }

// BlackholeGateway makes a federated site's gateway process every request but
// lose every reply — the worst-timed partition for a forwarded consign: the
// remote NJS journals the admission, the origin never sees the ack.
func (m *Mesh) BlackholeGateway(u core.Usite) error { return m.setMode(u, gateBlackhole) }

// Gateway failure modes of the gate wrapper.
const (
	gateAlive = iota
	// gateDead refuses every stream before the gateway sees it and severs the
	// live streams — a crashed gateway process. Clients observe a transport
	// failure and retry.
	gateDead
	// gateBlackhole hands requests to the gateway (state changes happen) but
	// loses the answers: a stream is cut when the reply to a frame is
	// written — the reply lost in transit.
	gateBlackhole
)

// gate wraps a site's stream door — its gateway, or a split site's front —
// with a switchable failure mode, through the connection-fault wrapper
// protocol.Flaky uses.
type gate struct {
	inner  protocol.StreamServer
	mode   atomic.Int32
	faults protocol.ConnFaults
}

func newGate(inner protocol.StreamServer) *gate {
	g := &gate{inner: inner}
	g.faults.Decide = func() protocol.Fault {
		if g.mode.Load() == gateBlackhole {
			return protocol.LoseFrame // the frame being written is the reply
		}
		return protocol.NoFault
	}
	return g
}

func (g *gate) setMode(m int32) {
	g.mode.Store(m)
	if m == gateDead {
		g.faults.Sever()
	}
}

// ServeStream serves a frame stream unless the gate is dead, in which case
// the connection is closed at once.
func (g *gate) ServeStream(ctx context.Context, conn net.Conn) {
	// Checked after Wrap, so a kill racing this accept either is seen here or
	// finds the connection in the set it severs.
	conn = g.faults.Wrap(conn)
	if g.mode.Load() == gateDead {
		conn.Close()
		return
	}
	g.inner.ServeStream(ctx, conn)
}
