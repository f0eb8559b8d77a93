// Command unicore-gateway runs one Usite's UNICORE server over mutually
// authenticated TLS (the https of §4.1). In the default (combined) mode it
// hosts the gateway and the NJS in one process; with -front it runs only the
// Web-server half of the §5.2 firewall split: it authenticates callers and
// splices their frame streams to an inner unicore-njs over an IP socket.
//
// With -replicas N (or per-Vsite "replicas" counts in the site config) the
// combined mode runs every Vsite as a pool of N NJS replicas behind
// health-checked failover routing (-pool-policy selects round-robin,
// least-loaded, or consistent-hash).
//
// Repeatable -peer USITE=https://host:port flags federate the gateway with
// peer gateways at other administrative sites: it gossips advertisements to
// them (-fed-interval), places `-site auto` jobs across the grid, and
// forwards consigns that land behind a peer. -advertise is the URL peers
// dial back; it is required with -peer.
//
// Usage:
//
//	unicore-gateway -config site.json -ca ca.pem -cred gateway.pem -listen :8443
//	unicore-gateway -config site.json -replicas 3 -pool-policy least-loaded -listen :8443
//	unicore-gateway -config site.json -peer DWD=https://gw.dwd:8443 -advertise https://gw.fzj:8443 -listen :8443
//	unicore-gateway -front -inner 127.0.0.1:7000 -ca ca.pem -cred front.pem -listen :8443
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"unicore/internal/controller"
	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/gateway"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/sim"
	"unicore/internal/telemetry"
)

// options are the flags that shape the combined-mode site.
type options struct {
	config, peers, poolPolicy, advertise string
	replicas                             int
	fedPeers                             []deploy.TopologyPeer
	fedEvery                             time.Duration
}

func main() {
	var (
		o          options
		caPath     = flag.String("ca", "ca.pem", "CA file")
		credPath   = flag.String("cred", "gateway.pem", "server credential file")
		listen     = flag.String("listen", ":8443", "TLS listen address")
		front      = flag.Bool("front", false, "run only the firewall front; relay to -inner")
		inner      = flag.String("inner", "127.0.0.1:7000", "inner NJS socket address (front mode)")
		appletsDir = flag.String("applets", "", "directory of applet payload files to sign and serve")
		softPath   = flag.String("software", "", "software credential used to sign applets")
		debugAddr  = flag.String("debug-addr", "", "opt-in: serve net/http/pprof and plaintext /metrics on this address")
	)
	flag.StringVar(&o.config, "config", "", "site configuration JSON (combined mode)")
	flag.StringVar(&o.peers, "peers", "", "comma-separated USITE=https://host:port peer registry")
	flag.IntVar(&o.replicas, "replicas", 1, "NJS replicas per Vsite (replica-pool mode when > 1)")
	flag.StringVar(&o.poolPolicy, "pool-policy", "round-robin", "replica routing: round-robin, least-loaded, or consistent-hash")
	flag.StringVar(&o.advertise, "advertise", "", "this gateway's URL in federation advertisements (required with -peer)")
	flag.DurationVar(&o.fedEvery, "fed-interval", time.Minute, "federation gossip cadence")
	flag.Func("peer", "peer gateway as USITE=https://host:port (repeatable; federates the grid)", func(v string) error {
		u, url, ok := strings.Cut(v, "=")
		if !ok || u == "" || url == "" {
			return fmt.Errorf("want USITE=URL, got %q", v)
		}
		o.fedPeers = append(o.fedPeers, deploy.TopologyPeer{Usite: core.Usite(u), URL: url})
		return nil
	})
	flag.Parse()

	ca, err := deploy.LoadAuthority(*caPath)
	if err != nil {
		log.Fatalf("unicore-gateway: %v", err)
	}
	cred, err := deploy.LoadCredential(*credPath)
	if err != nil {
		log.Fatalf("unicore-gateway: %v", err)
	}

	var handler http.Handler
	var debugRegs []*telemetry.Registry
	if *front {
		if len(o.fedPeers) > 0 {
			log.Fatal("unicore-gateway: -peer federates the combined gateway; the firewall front only relays")
		}
		f, err := gateway.NewFront(cred, ca, *inner)
		if err != nil {
			log.Fatalf("unicore-gateway: %v", err)
		}
		defer f.Close()
		handler = f
		log.Printf("front mode: relaying to inner NJS at %s", *inner)
	} else {
		gw, regs, stop, err := assemble(o, cred, ca)
		if err != nil {
			log.Fatalf("unicore-gateway: %v", err)
		}
		defer stop()
		debugRegs = regs
		if *appletsDir != "" {
			if err := installApplets(gw, *appletsDir, *softPath); err != nil {
				log.Fatalf("unicore-gateway: %v", err)
			}
		}
		handler = gw
	}

	if *debugAddr != "" {
		// In front mode no registries exist on this side of the firewall: the
		// debug server still serves pprof, and /metrics is an empty document.
		ds, err := telemetry.ServeDebug(*debugAddr, debugRegs...)
		if err != nil {
			log.Fatalf("unicore-gateway: debug server: %v", err)
		}
		defer func() {
			if err := ds.Close(); err != nil {
				log.Printf("unicore-gateway: closing debug server: %v", err)
			}
		}()
		log.Printf("debug server (pprof + /metrics) on http://%s", ds.Addr())
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("unicore-gateway: %v", err)
	}
	log.Printf("listening on %s (mutual TLS)", l.Addr())
	if err := gateway.ServeTLS(l, handler, cred, ca); err != nil {
		log.Fatalf("unicore-gateway: %v", err)
	}
}

// assemble stands up the combined-mode site the flags describe and returns
// its gateway, the telemetry registries -debug-addr serves, and a stop
// function. A site with one replica per Vsite is a single NJS behind the
// gateway (deploy.BuildSite); -replicas or a per-Vsite count above one makes
// it a static controller.Stack, the reconcile loop left unstarted.
func assemble(o options, cred *pki.Credential, ca *pki.Authority) (*gateway.Gateway, []*telemetry.Registry, func(), error) {
	if o.config == "" {
		return nil, nil, nil, errors.New("combined mode needs -config")
	}
	if len(o.fedPeers) > 0 && o.advertise == "" {
		return nil, nil, nil, errors.New("-peer needs -advertise (the URL peers dial this gateway at)")
	}
	site, err := deploy.LoadSite(o.config)
	if err != nil {
		return nil, nil, nil, err
	}
	routes, err := deploy.ParsePeers(o.peers)
	if err != nil {
		return nil, nil, nil, err
	}
	pooled := o.replicas > 1
	for i := range site.Vsites {
		v := &site.Vsites[i]
		pooled = pooled || v.Replicas > 1
		if v.Replicas < 1 {
			v.Replicas = o.replicas
		}
		if v.Policy == "" {
			v.Policy = o.poolPolicy
		}
	}
	log.Printf("combined mode: serving Usite %s", site.Usite)

	if pooled {
		stack, err := controller.NewStack(controller.StackConfig{
			Spec: &deploy.TopologySpec{
				Version: deploy.TopologyVersion,
				Sites:   []deploy.TopologySite{*site},
				Peers:   o.fedPeers,
			},
			Usite:          site.Usite,
			Cred:           cred,
			CA:             ca,
			Clock:          sim.RealClock{},
			AdvertiseURL:   o.advertise,
			GossipInterval: o.fedEvery,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		for _, u := range routes.Sites() {
			url, _ := routes.Lookup(u)
			stack.Peers.Registry().Add(u, url)
		}
		stack.Router.StartHealthChecks()
		regs := []*telemetry.Registry{stack.Gateway.Telemetry()}
		for _, set := range stack.Router.Sets() {
			regs = append(regs, set.Telemetry())
			log.Printf("vsite %s: %d NJS replicas, %s routing", set.Vsite(), len(set.Names()), set.Policy())
		}
		for _, n := range stack.Replicas() {
			regs = append(regs, n.Telemetry())
		}
		if stack.Federation != nil {
			regs = append(regs, stack.Federation.Registry())
		}
		return stack.Gateway, regs, func() {
			stack.Router.StopHealthChecks()
			if err := stack.Close(); err != nil {
				log.Printf("unicore-gateway: closing site: %v", err)
			}
		}, nil
	}

	gw, n, _, err := deploy.BuildSite(site, cred, ca, sim.RealClock{}, "", 0)
	if err != nil {
		return nil, nil, nil, err
	}
	tr := gateway.ClientTransport(cred, ca)
	if o.peers != "" {
		n.SetPeers(protocol.NewClient(tr, cred, ca, routes))
	}
	regs := []*telemetry.Registry{gw.Telemetry(), n.Telemetry()}
	stop := func() {}
	if len(o.fedPeers) > 0 {
		// The federation gets its own registry, so peer routing never
		// collides with the NJS's -peers transfer registry.
		fed, err := deploy.Federate(gw, protocol.NewClient(tr, cred, ca, protocol.NewRegistry()),
			sim.RealClock{}, o.advertise, o.fedPeers, n.Accounting)
		if err != nil {
			return nil, nil, nil, err
		}
		fed.Start(o.fedEvery)
		log.Printf("federated with %v, advertising %s every %s", fed.Peers(), o.advertise, o.fedEvery)
		regs = append(regs, fed.Registry())
		stop = fed.Stop
	}
	return gw, regs, stop, nil
}

// installApplets signs and installs every file in dir as an applet.
func installApplets(gw *gateway.Gateway, dir, softPath string) error {
	if softPath == "" {
		return fmt.Errorf("-applets needs -software")
	}
	soft, err := deploy.LoadCredential(softPath)
	if err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		payload, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		a, err := gateway.SignApplet(soft, e.Name(), "1.0", payload)
		if err != nil {
			return err
		}
		if err := gw.InstallApplet(a); err != nil {
			return err
		}
		log.Printf("installed applet %s (%d bytes)", e.Name(), len(payload))
	}
	return nil
}
