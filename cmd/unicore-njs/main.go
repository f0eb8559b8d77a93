// Command unicore-njs runs the inside-the-firewall half of a split UNICORE
// server (§5.2): the NJS plus the gateway's security logic, served plain on
// the site-selectable IP socket that the unicore-gateway front relays to. The
// front admits only callers whose signed hello (or envelope) it has verified;
// this half verifies them again.
//
// With -state-dir the NJS is durable: job state is recovered from the
// write-ahead journal at boot, every admission and transition is journaled
// while serving, and SIGINT/SIGTERM snapshots the store, closes the
// listener, and exits cleanly. Without it the NJS is memory-only, as in the
// original prototype.
//
// The site shape comes from -config (per-site JSON) or from a shared
// declarative topology spec: -topology topology.json -usite FZJ derives the
// same config from the document unicore-ctl applies, and defaults the state
// directory to the spec's journalDir.
//
// Usage:
//
//	unicore-njs -config site.json -ca ca.pem -cred njs.pem \
//	    -listen 127.0.0.1:7000 -state-dir /var/lib/unicore/njs
//	unicore-njs -topology topology.json -usite FZJ -ca ca.pem -cred njs.pem
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/gateway"
	"unicore/internal/journal"
	"unicore/internal/njs"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/sim"
	"unicore/internal/telemetry"
)

// options are the flags that shape the site.
type options struct {
	config, topology, usite, peers, stateDir string
	snapEvery                                int
}

func main() {
	var (
		o         options
		caPath    = flag.String("ca", "ca.pem", "CA file")
		credPath  = flag.String("cred", "njs.pem", "server credential file")
		listen    = flag.String("listen", "127.0.0.1:7000", "inner socket listen address")
		spoolTTL  = flag.Duration("spool-ttl", njs.DefaultSpoolTTL, "staged uploads never consigned are garbage-collected after this age")
		debugAddr = flag.String("debug-addr", "", "opt-in: serve net/http/pprof and plaintext /metrics on this address")
	)
	flag.StringVar(&o.config, "config", "", "site configuration JSON")
	flag.StringVar(&o.topology, "topology", "", "topology spec file (alternative to -config; needs -usite)")
	flag.StringVar(&o.usite, "usite", "", "which declared usite of the -topology spec to serve")
	flag.StringVar(&o.peers, "peers", "", "comma-separated USITE=https://host:port peer registry")
	flag.StringVar(&o.stateDir, "state-dir", "", "journal/snapshot directory for durable job state (empty = memory-only)")
	flag.IntVar(&o.snapEvery, "snapshot-every", 4096, "journal entries between automatic snapshots (with -state-dir)")
	flag.Parse()
	ca, err := deploy.LoadAuthority(*caPath)
	if err != nil {
		log.Fatalf("unicore-njs: %v", err)
	}
	cred, err := deploy.LoadCredential(*credPath)
	if err != nil {
		log.Fatalf("unicore-njs: %v", err)
	}
	gw, n, store, err := assemble(o, cred, ca)
	if err != nil {
		log.Fatalf("unicore-njs: %v", err)
	}
	if store != nil {
		log.Printf("recovered durable job state from %s", store.Dir())
	}
	if *debugAddr != "" {
		ds, err := telemetry.ServeDebug(*debugAddr, gw.Telemetry(), n.Telemetry())
		if err != nil {
			log.Fatalf("unicore-njs: debug server: %v", err)
		}
		defer func() {
			if err := ds.Close(); err != nil {
				log.Printf("unicore-njs: closing debug server: %v", err)
			}
		}()
		log.Printf("debug server (pprof + /metrics) on http://%s", ds.Addr())
	}

	// Staged-upload garbage collection: abandoned spool entries (uploads
	// never committed, or committed but never consigned) go after -spool-ttl.
	if *spoolTTL > 0 {
		sweep := time.NewTicker(*spoolTTL / 4)
		defer sweep.Stop()
		go func() {
			for range sweep.C {
				if removed := n.SweepStaging(*spoolTTL); removed > 0 {
					log.Printf("unicore-njs: swept %d abandoned staged uploads", removed)
				}
			}
		}()
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("unicore-njs: %v", err)
	}
	log.Printf("NJS for Usite %s (Vsites %v) behind the firewall on %s",
		n.Usite(), n.VsiteNames(), l.Addr())

	// Clean shutdown: stop taking requests first (close the listener), and
	// only once Serve has unwound snapshot the store (so the next boot
	// replays one compact snapshot instead of a long journal tail), retire
	// the NJS, and close the journal. A consign acknowledged after the
	// journal closed would be silently lost, so the NJS must refuse new
	// work before the store goes away.
	var shuttingDown atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		shuttingDown.Store(true)
		log.Printf("unicore-njs: %s — shutting down", sig)
		l.Close()
	}()

	err = http.Serve(l, gw)
	if shuttingDown.Load() {
		if store != nil {
			if serr := n.Snapshot(); serr != nil {
				log.Printf("unicore-njs: snapshot on shutdown: %v", serr)
			}
			// Connections accepted before the listener closed may still be
			// served. Retire the NJS before closing the store: from here on
			// consigns are refused with ErrDown instead of being acked
			// against a journal that is about to close (which would silently
			// lose them), and journaling stops so Close flushes a complete
			// stream.
			n.Kill()
			if serr := store.Close(); serr != nil {
				log.Printf("unicore-njs: closing journal: %v", serr)
			}
		}
		log.Print("unicore-njs: shut down cleanly")
		return
	}
	if err != nil && !errors.Is(err, net.ErrClosed) {
		log.Fatalf("unicore-njs: %v", err)
	}
}

// assemble stands up the site the flags describe — its shape from -config
// (a site file) or from one declared site of a shared -topology spec, which
// also defaults the state directory to <journalDir>/<usite> so every site of
// the deployment journals under one declared tree — and returns it wired
// and, when durable, with its recovered workload resumed.
func assemble(o options, cred *pki.Credential, ca *pki.Authority) (*gateway.Gateway, *njs.NJS, *journal.Store, error) {
	var site *deploy.TopologySite
	switch {
	case o.config != "" && o.topology != "":
		return nil, nil, nil, errors.New("-config and -topology are mutually exclusive")
	case o.config != "":
		var err error
		if site, err = deploy.LoadSite(o.config); err != nil {
			return nil, nil, nil, err
		}
	case o.topology == "":
		return nil, nil, nil, errors.New("need -config or -topology")
	case o.usite == "":
		return nil, nil, nil, errors.New("-topology needs -usite")
	default:
		spec, err := deploy.LoadTopology(o.topology)
		if err != nil {
			return nil, nil, nil, err
		}
		var ok bool
		if site, ok = spec.Site(core.Usite(o.usite)); !ok {
			return nil, nil, nil, fmt.Errorf("topology declares no usite %q", o.usite)
		}
		if o.stateDir == "" && spec.JournalDir != "" {
			o.stateDir = filepath.Join(spec.JournalDir, o.usite)
		}
	}
	routes, err := deploy.ParsePeers(o.peers)
	if err != nil {
		return nil, nil, nil, err
	}
	gw, n, store, err := deploy.BuildSite(site, cred, ca, sim.RealClock{}, o.stateDir, o.snapEvery)
	if err != nil {
		return nil, nil, nil, err
	}
	if o.peers != "" {
		n.SetPeers(protocol.NewClient(gateway.ClientTransport(cred, ca), cred, ca, routes))
	}
	if store != nil {
		// Wiring is complete: resume the recovered workload (re-dispatch
		// in-flight actions, re-arm remote poll timers).
		n.ResumeRecovered()
	}
	return gw, n, store, nil
}
