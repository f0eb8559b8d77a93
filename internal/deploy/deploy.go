// Package deploy holds the file formats and assembly helpers behind the
// cmd/ tools: the site schema (TopologySite — a site.json, or one entry of a
// topology spec), the single-NJS site builder, the replica constructor
// every pooled site is made of and the federation attach every gateway
// shares, JSON job descriptions for the CLI JPA, and PEM keyring loading. It is the glue that turns the in-process library into
// real multi-process deployments over TLS.
package deploy

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"unicore/internal/accounting"
	"unicore/internal/core"
	"unicore/internal/federation"
	"unicore/internal/gateway"
	"unicore/internal/journal"
	"unicore/internal/machine"
	"unicore/internal/njs"
	"unicore/internal/pki"
	"unicore/internal/pool"
	"unicore/internal/protocol"
	"unicore/internal/sim"
	"unicore/internal/uudb"
)

// Machine resolves a profile name (processors = 0 keeps the default size).
func Machine(name string, processors int) (machine.Profile, error) {
	var p machine.Profile
	switch name {
	case "t3e":
		p = machine.CrayT3E(512)
	case "vpp700":
		p = machine.FujitsuVPP700(52)
	case "sp2":
		p = machine.IBMSP2(76)
	case "sx4":
		p = machine.NECSX4(16)
	case "cluster":
		p = machine.GenericCluster(32)
	default:
		return machine.Profile{}, fmt.Errorf("unknown machine %q (want t3e, vpp700, sp2, sx4, or cluster)", name)
	}
	if processors > 0 {
		p.Processors = processors
	}
	return p, nil
}

// BuildUsers assembles a site's UUDB from its declared user mappings — the
// piece of a site description BuildSite and controller.Stack share.
func BuildUsers(mappings []UserMapping) (*uudb.DB, error) {
	users := uudb.New()
	for _, u := range mappings {
		users.AddUser(u.DN, u.Email)
		for vs, login := range u.Logins {
			if err := users.AddMapping(u.DN, vs, login); err != nil {
				return nil, fmt.Errorf("deploy: mapping %s at %s: %w", u.DN, vs, err)
			}
		}
	}
	return users, nil
}

// BuildSite assembles a single-NJS site — UUDB, one NJS serving every
// declared Vsite, and the gateway in front of it — under the given clock
// (sim.RealClock{} in the daemons). The NJS maps logins through the UUDB and
// reaches other sites through peers (nil: no peer sites). With stateDir ==
// "" the NJS is memory-only and the returned store is nil. Otherwise job
// state is recovered from the journal rooted there and every later
// transition is journaled (automatic snapshot after snapshotEvery entries):
// the caller calls NJS.ResumeRecovered to resume the recovered workload, and
// owns the store — snapshot and close it on shutdown.
func BuildSite(site *TopologySite, cred *pki.Credential, ca *pki.Authority, clock sim.Scheduler, peers *protocol.Client, stateDir string, snapshotEvery int) (*gateway.Gateway, *njs.NJS, *journal.Store, error) {
	users, err := BuildUsers(site.Users)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := njs.Config{Usite: site.Usite, Clock: clock, Logins: users.Map, Peers: peers, SnapshotEvery: snapshotEvery}
	for i := range site.Vsites {
		vc, err := site.Vsites[i].NJSConfig()
		if err != nil {
			return nil, nil, nil, err
		}
		cfg.Vsites = append(cfg.Vsites, vc)
	}
	if stateDir != "" {
		if cfg.Journal, err = journal.Open(stateDir); err != nil {
			return nil, nil, nil, err
		}
	}
	n, err := njs.New(cfg)
	var gw *gateway.Gateway
	if err == nil {
		gw, err = gateway.New(gateway.Config{Usite: site.Usite, Cred: cred, CA: ca, Backend: n})
	}
	if err != nil {
		if cfg.Journal != nil {
			// Surface a failing close alongside the assembly error: a close
			// failure here is a swallowed flush/fsync problem on the journal.
			err = errors.Join(err, cfg.Journal.Close())
		}
		return nil, nil, nil, err
	}
	// Telemetry timestamps (trace span starts) follow the deployment clock.
	gw.Telemetry().SetNow(clock.Now)
	return gw, n, cfg.Journal, nil
}

// BuildReplica builds one NJS replica serving the single Vsite vc under a
// pool tag — the only place a tagged NJS is minted, whether a
// controller.Stack is populating, growing, healing or rolling a pool. cfg
// carries the rest of the replica's construction: usite, clock, login
// mapper, peer client, and its own journal (nil: memory-only). The NJS
// instance is pool.Instance(vc.Name, tag), unique within the Usite, so the
// names minted across every pool of the site never collide and each names
// its replica; a replica recovered from its journal must be rebuilt under
// the tag it journaled with, and resumed with ResumeRecovered once it has
// rejoined its set.
func BuildReplica(cfg njs.Config, vc njs.VsiteConfig, tag string) (*njs.NJS, error) {
	cfg.Vsites = []njs.VsiteConfig{vc}
	cfg.Instance = pool.Instance(vc.Name, tag)
	n, err := njs.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("deploy: vsite %s replica %s: %w", vc.Name, tag, err)
	}
	return n, nil
}

// Federate gives a gateway its grid membership: a federation advertising
// the gateway at url, gossiping through client (which speaks under the
// gateway's server credential) with the given peers, placing least-loaded
// first, and advertising the charge-back summary of the batch
// accounting records usage returns. The gossip loop is not started.
func Federate(gw *gateway.Gateway, client *protocol.Client, clock sim.Scheduler, url string, peers []TopologyPeer, usage func() []accounting.Record) (*federation.Federation, error) {
	fed, err := federation.New(federation.Config{
		Usite:  gw.Usite(),
		URL:    url,
		Client: client,
		Clock:  clock,
		Usage:  func() accounting.Summary { return accounting.Summarise(usage()) },
	})
	if err != nil {
		return nil, err
	}
	for _, p := range peers {
		if err := fed.AddPeer(p.Usite, p.URL); err != nil {
			return nil, err
		}
	}
	gw.SetFederation(fed)
	return fed, nil
}

// LoadAuthority reads a CA PEM file.
func LoadAuthority(path string) (*pki.Authority, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	return pki.DecodeAuthorityPEM(data)
}

// LoadCredential reads a credential PEM file.
func LoadCredential(path string) (*pki.Credential, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	return pki.DecodeCredentialPEM(data)
}

// WriteFile persists data with private-key-appropriate permissions.
func WriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o600)
}

// ParsePeers builds a site registry from "FZJ=https://gw.fzj:8443,ZIB=...".
func ParsePeers(s string) (*protocol.Registry, error) {
	reg := protocol.NewRegistry()
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		usite, url, ok := strings.Cut(pair, "=")
		if !ok || usite == "" || url == "" {
			return nil, fmt.Errorf("deploy: bad peer %q (want USITE=URL)", pair)
		}
		reg.Add(core.Usite(usite), url)
	}
	return reg, nil
}
