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

// newNJS mints an NJS: memory-only when store is nil, otherwise recovered
// from the store (an empty store is a fresh NJS) and journaling to it from
// then on.
func newNJS(cfg njs.Config, store *journal.Store, snapshotEvery int) (*njs.NJS, error) {
	if store == nil {
		return njs.New(cfg)
	}
	return njs.Recover(store, cfg, snapshotEvery)
}

// BuildSite assembles a single-NJS site — UUDB, one NJS serving every
// declared Vsite, and the gateway in front of it — under the given clock
// (sim.RealClock{} in the daemons). With stateDir == "" the NJS is
// memory-only and the returned store is nil. Otherwise job state is
// recovered from the journal rooted there and every later transition is
// journaled (automatic snapshot after snapshotEvery entries; see
// njs.AttachJournal): the caller must call NJS.ResumeRecovered once wiring
// (peers) is complete, and owns the store — snapshot and close it on
// shutdown.
func BuildSite(site *TopologySite, cred *pki.Credential, ca *pki.Authority, clock sim.Scheduler, stateDir string, snapshotEvery int) (*gateway.Gateway, *njs.NJS, *journal.Store, error) {
	users, err := BuildUsers(site.Users)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := njs.Config{Usite: site.Usite, Clock: clock}
	for i := range site.Vsites {
		vc, err := site.Vsites[i].NJSConfig()
		if err != nil {
			return nil, nil, nil, err
		}
		cfg.Vsites = append(cfg.Vsites, vc)
	}
	var store *journal.Store
	if stateDir != "" {
		if store, err = journal.Open(stateDir); err != nil {
			return nil, nil, nil, err
		}
	}
	n, err := newNJS(cfg, store, snapshotEvery)
	var gw *gateway.Gateway
	if err == nil {
		gw, err = gateway.New(gateway.Config{Usite: site.Usite, Cred: cred, CA: ca, Users: users, Backend: n})
	}
	if err != nil {
		if store != nil {
			// Surface a failing close alongside the assembly error: a close
			// failure here is a swallowed flush/fsync problem on the journal.
			err = errors.Join(err, store.Close())
		}
		return nil, nil, nil, err
	}
	// Telemetry timestamps (trace span starts) follow the deployment clock.
	gw.Telemetry().SetNow(clock.Now)
	return gw, n, store, nil
}

// BuildReplica builds one NJS replica serving a single Vsite under a pool
// tag — the only place a tagged NJS is minted, whether a controller.Stack is
// populating, growing, healing or rolling a pool. The NJS instance is
// pool.Instance(vsite, tag), unique within the Usite, so the names minted
// across every pool of the site never collide and each names its replica; a
// recovered replica must be rebuilt under the tag it journaled with. A nil
// store builds a memory-only replica; otherwise the replica's prior life is
// recovered from the store, the caller must call ResumeRecovered once wiring
// is complete, and the caller owns the store.
func BuildReplica(usite core.Usite, vc njs.VsiteConfig, clock sim.Scheduler, tag string, store *journal.Store, snapshotEvery int) (*njs.NJS, error) {
	n, err := newNJS(njs.Config{
		Usite:    usite,
		Clock:    clock,
		Vsites:   []njs.VsiteConfig{vc},
		Instance: pool.Instance(vc.Name, tag),
	}, store, snapshotEvery)
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
