package testbed

// Federation harness: EnableFederation peers deployed sites' gateways into a
// full mesh, GossipAll drives deterministic gossip rounds under the virtual
// clock, and the gate wrapper simulates gateway-process failures — including
// the cruellest one, a gateway that processes a forwarded consign but loses
// the reply (BlackholeGateway), which is how the durable-ack contract gets
// exercised across sites.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"

	"unicore/internal/accounting"
	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/federation"
	"unicore/internal/gateway"
	"unicore/internal/protocol"
)

// Gateway failure modes of the gate wrapper.
const (
	gateAlive = iota
	// gateDead refuses every stream and request before the gateway sees it
	// and severs the live streams — a crashed gateway process. Clients
	// observe a transport failure and retry.
	gateDead
	// gateBlackhole hands requests to the gateway (state changes happen) but
	// loses the answers: a stream is cut when the reply to a frame is
	// written, a POST's response is discarded — the reply lost in transit.
	gateBlackhole
)

// gate wraps a site's gateway with a switchable failure mode, on both of its
// doors: the frame streams clients and peers ride (protocol.StreamServer,
// through the connection-fault wrapper protocol.Flaky uses) and the gossip
// POST.
type gate struct {
	inner  *gateway.Gateway
	mode   atomic.Int32
	faults protocol.ConnFaults
}

func newGate(inner *gateway.Gateway) *gate {
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

// ServeHTTP serves an envelope POST according to the gate's mode.
func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch g.mode.Load() {
	case gateDead:
		http.Error(w, "testbed: gateway down", http.StatusBadGateway)
	case gateBlackhole:
		g.inner.ServeHTTP(httptest.NewRecorder(), r)
		http.Error(w, "testbed: reply lost", http.StatusBadGateway)
	default:
		g.inner.ServeHTTP(w, r)
	}
}

// EnableFederation peers the named sites' gateways (every site when none are
// named) into a full mesh. Each gateway gets a federation membership speaking
// under the site's server credential, and its registered host is wrapped so
// KillGateway / RestartGateway / BlackholeGateway can simulate gateway
// failures. No gossip timer is armed — drive rounds with GossipAll so tests
// stay deterministic under the virtual clock.
func (d *Deployment) EnableFederation(usites ...core.Usite) error {
	if len(usites) == 0 {
		usites = d.order
	}
	if d.feds == nil {
		d.feds = make(map[core.Usite]*federation.Federation)
		d.gates = make(map[core.Usite]*gate)
	}
	for _, u := range usites {
		site, ok := d.Sites[u]
		if !ok {
			return fmt.Errorf("testbed: unknown usite %q", u)
		}
		if site.Front != nil {
			return fmt.Errorf("testbed: federation on split site %s is not supported", u)
		}
		if _, dup := d.feds[u]; dup {
			continue
		}
		// No peers yet: the full mesh below covers sites federated later too.
		fed, err := deploy.Federate(site.Gateway, protocol.NewClient(d.Net, site.cred, d.CA, d.Registry),
			d.Clock, "https://"+hostOf(u), nil, func() []accounting.Record { return d.SiteAccounting(u) })
		if err != nil {
			return err
		}
		d.feds[u] = fed
		g := newGate(site.Gateway)
		d.gates[u] = g
		d.Net.Register(hostOf(u), g)
	}
	// Full mesh: every federated site is a direct peer of every other.
	for a, fa := range d.feds {
		for b := range d.feds {
			if a == b {
				continue
			}
			if err := fa.AddPeer(b, "https://"+hostOf(b)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Federation returns a site's federation membership (nil before
// EnableFederation).
func (d *Deployment) Federation(u core.Usite) *federation.Federation {
	return d.feds[u]
}

// GossipAll runs one gossip round at every federated site, in declaration
// order. Unreachable peers are not fatal — they merely go stale, exactly as
// in production. Two rounds make transitively-learned ads settle.
func (d *Deployment) GossipAll() {
	for _, u := range d.order {
		if fed := d.feds[u]; fed != nil {
			_ = fed.GossipOnce(context.Background())
		}
	}
}

// gateOf resolves a federated site's failure-mode wrapper.
func (d *Deployment) gateOf(u core.Usite) (*gate, error) {
	g, ok := d.gates[u]
	if !ok {
		return nil, fmt.Errorf("testbed: %s has no federated gateway", u)
	}
	return g, nil
}

// KillGateway simulates a crashed gateway process at a federated site: every
// request to its host fails at the transport until RestartGateway. The NJS
// behind it keeps running — kill it separately to crash the whole site.
func (d *Deployment) KillGateway(u core.Usite) error {
	g, err := d.gateOf(u)
	if err != nil {
		return err
	}
	g.setMode(gateDead)
	return nil
}

// RestartGateway brings a killed (or blackholed) gateway back.
func (d *Deployment) RestartGateway(u core.Usite) error {
	g, err := d.gateOf(u)
	if err != nil {
		return err
	}
	g.setMode(gateAlive)
	return nil
}

// BlackholeGateway makes a federated site's gateway process every request but
// lose every reply — the worst-timed partition for a forwarded consign: the
// remote NJS journals the admission, the origin never sees the ack.
func (d *Deployment) BlackholeGateway(u core.Usite) error {
	g, err := d.gateOf(u)
	if err != nil {
		return err
	}
	g.setMode(gateBlackhole)
	return nil
}
