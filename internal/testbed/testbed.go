// Package testbed assembles complete in-process UNICORE deployments: a
// shared certificate authority, per-site user databases, gateways (combined
// or firewall-split), NJSs with their Vsites, an in-process network, and
// user credentials — everything Figure 2 shows, in one process under one
// virtual clock.
//
// The German() constructor reproduces the §5.7 production deployment: the
// six centres (FZJ, RUS, RUKA, LRZ, ZIB, DWD) with the four system types the
// paper names (Cray T3E, Fujitsu VPP/700, IBM SP-2, NEC SX-4).
package testbed

import (
	"fmt"
	"net"
	"net/http"
	"strings"

	"unicore/internal/accounting"
	"unicore/internal/client"
	"unicore/internal/codine"
	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/federation"
	"unicore/internal/gateway"
	"unicore/internal/journal"
	"unicore/internal/machine"
	"unicore/internal/njs"
	"unicore/internal/pki"
	"unicore/internal/pool"
	"unicore/internal/protocol"
	"unicore/internal/sim"
	"unicore/internal/telemetry"
	"unicore/internal/uudb"
)

// SiteSpec declares one Usite of a deployment.
type SiteSpec struct {
	Usite  core.Usite
	Vsites []njs.VsiteConfig
	// Split deploys the site in the §5.2 firewall configuration: the Web
	// server half outside, the NJS half inside, talking over a loopback TCP
	// socket.
	Split bool
	// Replicas > 1 deploys the site with a replica pool: every Vsite is
	// served by that many independent NJS replicas behind a pool.Router, the
	// scaled-out server tier. Replicated sites cannot also be Split.
	Replicas int
	// Policy selects the pool's consign routing (used when Replicas > 1).
	Policy pool.Policy
	// SiteAuth is the optional site-specific authentication hook.
	SiteAuth gateway.SiteAuth
}

// Site is one deployed Usite.
type Site struct {
	Spec    SiteSpec
	NJS     *njs.NJS // nil on replicated sites; see Pool/Replicas
	Gateway *gateway.Gateway
	Users   *uudb.DB
	// Pool and Replicas are set on replicated sites (Spec.Replicas > 1):
	// the router behind the gateway, and the replica NJSs per Vsite in
	// replica-index order.
	Pool     *pool.Router
	Replicas map[core.Vsite][]*njs.NJS
	// Front and inner are set in split deployments: the firewall half, and
	// the socket the gateway is served on inside.
	Front *gateway.Front
	inner net.Listener

	cred *pki.Credential // server credential, kept for NJS restarts
}

// Deployment is a whole multi-Usite UNICORE installation.
type Deployment struct {
	Clock    *sim.VirtualClock
	CA       *pki.Authority
	Net      *protocol.InProc
	Registry *protocol.Registry
	Software *pki.Credential
	Sites    map[core.Usite]*Site

	order   []core.Usite
	managed map[core.Usite]*ManagedSite
	feds    map[core.Usite]*federation.Federation
	gates   map[core.Usite]*gate
}

// hostOf derives the in-process host name of a site's gateway.
func hostOf(u core.Usite) string {
	return "gw." + strings.ToLower(string(u)) + ".unicore"
}

// newDeployment creates an empty deployment: a fresh CA, virtual clock and
// in-process network, no sites yet.
func newDeployment() (*Deployment, error) {
	ca, err := pki.NewAuthority("DFN-PCA")
	if err != nil {
		return nil, err
	}
	software, err := ca.IssueSoftware("UNICORE Consortium")
	if err != nil {
		return nil, err
	}
	return &Deployment{
		Clock:    sim.NewVirtualClock(),
		CA:       ca,
		Net:      protocol.NewInProc(),
		Registry: protocol.NewRegistry(),
		Software: software,
		Sites:    make(map[core.Usite]*Site),
	}, nil
}

// New deploys the given sites. Every gateway gets signed JPA and JMC applet
// payloads, and every NJS gets a server-credentialled peer client so job
// groups can be distributed between the sites (Figure 2).
func New(specs ...SiteSpec) (*Deployment, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("testbed: no sites")
	}
	d, err := newDeployment()
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		if _, dup := d.Sites[spec.Usite]; dup {
			return nil, fmt.Errorf("testbed: duplicate Usite %q", spec.Usite)
		}
		site, err := d.deploySite(spec)
		if err != nil {
			return nil, fmt.Errorf("testbed: deploying %s: %w", spec.Usite, err)
		}
		d.Sites[spec.Usite] = site
		d.order = append(d.order, spec.Usite)
	}
	return d, nil
}

// deploySite stands up one Usite.
func (d *Deployment) deploySite(spec SiteSpec) (*Site, error) {
	host := hostOf(spec.Usite)
	srvCred, err := d.CA.IssueServer("gateway."+strings.ToLower(string(spec.Usite)), host)
	if err != nil {
		return nil, err
	}
	users := uudb.New(spec.Usite, d.Clock)
	site := &Site{Spec: spec, Users: users, cred: srvCred}
	gwCfg := gateway.Config{
		Usite:    spec.Usite,
		Cred:     srvCred,
		CA:       d.CA,
		Users:    users,
		SiteAuth: spec.SiteAuth,
	}
	if spec.Replicas > 1 {
		// Replica-pool deployment: every Vsite is served by Replicas
		// independent NJSs behind a pool.Router, which the gateway fronts
		// through the same njs.Service interface as a single NJS.
		if spec.Split {
			return nil, fmt.Errorf("replicated site cannot also be split")
		}
		router, err := pool.NewRouter(spec.Usite)
		if err != nil {
			return nil, err
		}
		site.Pool = router
		site.Replicas = make(map[core.Vsite][]*njs.NJS, len(spec.Vsites))
		for _, vc := range spec.Vsites {
			set, err := pool.New(pool.Config{Vsite: vc.Name, Policy: spec.Policy, Clock: d.Clock})
			if err != nil {
				return nil, err
			}
			for i := 0; i < spec.Replicas; i++ {
				n, err := deploy.BuildReplica(spec.Usite, vc, d.Clock, pool.ReplicaTag(i), nil, 0)
				if err != nil {
					return nil, err
				}
				n.SetPeers(protocol.NewClient(d.Net, srvCred, d.CA, d.Registry))
				if err := set.Add(pool.ReplicaTag(i), n); err != nil {
					return nil, err
				}
				site.Replicas[vc.Name] = append(site.Replicas[vc.Name], n)
			}
			if err := router.AddSet(set); err != nil {
				return nil, err
			}
		}
		gwCfg.Backend = router
	} else {
		n, err := njs.New(njs.Config{Usite: spec.Usite, Clock: d.Clock, Vsites: spec.Vsites})
		if err != nil {
			return nil, err
		}
		// The NJS talks to peer sites as this site's server identity.
		n.SetPeers(protocol.NewClient(d.Net, srvCred, d.CA, d.Registry))
		site.NJS = n
		gwCfg.NJS = n
	}
	gw, err := gateway.New(gwCfg)
	if err != nil {
		return nil, err
	}
	// Span timestamps follow the virtual clock, so cross-tier traces order
	// on simulation time (the NJS and pool registries are wired likewise).
	gw.Telemetry().SetNow(d.Clock.Now)
	site.Gateway = gw

	// Serve the signed applets the user tier loads (§4.1).
	for _, name := range []string{"jpa", "jmc"} {
		payload := []byte(fmt.Sprintf("signed %s applet for %s", name, spec.Usite))
		applet, err := gateway.SignApplet(d.Software, name, "1.0", payload)
		if err != nil {
			return nil, err
		}
		if err := gw.InstallApplet(applet); err != nil {
			return nil, err
		}
	}

	if spec.Split {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("split listener: %w", err)
		}
		go http.Serve(l, gw)
		frontCred, err := d.CA.IssueServer("front."+strings.ToLower(string(spec.Usite)), host)
		if err != nil {
			return nil, err
		}
		front, err := gateway.NewFront(frontCred, d.CA, l.Addr().String())
		if err != nil {
			return nil, err
		}
		site.Front = front
		site.inner = l
		d.Net.Register(host, front)
	} else {
		d.Net.Register(host, gw)
	}
	d.Registry.Add(spec.Usite, "https://"+host)
	return site, nil
}

// EnableDurability attaches a write-ahead journal store (rooted at dir) to a
// site's NJS. snapshotEvery > 0 sets the automatic snapshot cadence. The
// returned store belongs to the caller: Sync/Close it around a simulated
// crash and hand a reopened store to RestartSite. Replicated sites journal
// per replica; use EnableReplicaDurability.
func (d *Deployment) EnableDurability(u core.Usite, dir string, snapshotEvery int) (*journal.Store, error) {
	site, ok := d.Sites[u]
	if !ok {
		return nil, fmt.Errorf("testbed: unknown usite %q", u)
	}
	if site.NJS == nil {
		return nil, fmt.Errorf("testbed: %s is replicated; use EnableReplicaDurability", u)
	}
	store, err := journal.Open(dir)
	if err != nil {
		return nil, err
	}
	site.NJS.AttachJournal(store, snapshotEvery)
	return store, nil
}

// replica resolves one replica of a replicated site.
func (d *Deployment) replica(u core.Usite, v core.Vsite, i int) (*Site, *pool.ReplicaSet, *njs.NJS, error) {
	site, ok := d.Sites[u]
	if !ok {
		return nil, nil, nil, fmt.Errorf("testbed: unknown usite %q", u)
	}
	if site.Pool == nil {
		return nil, nil, nil, fmt.Errorf("testbed: %s is not a replicated site", u)
	}
	set, ok := site.Pool.Set(v)
	if !ok {
		return nil, nil, nil, fmt.Errorf("testbed: no vsite %q at %s", v, u)
	}
	reps := site.Replicas[v]
	if i < 0 || i >= len(reps) {
		return nil, nil, nil, fmt.Errorf("testbed: %s/%s has no replica %d", u, v, i)
	}
	return site, set, reps[i], nil
}

// EnableReplicaDurability attaches a journal store (rooted at dir) to one
// replica of a replicated site — each replica owns its own journal, exactly
// as each would in a real multi-process pool.
func (d *Deployment) EnableReplicaDurability(u core.Usite, v core.Vsite, i int, dir string, snapshotEvery int) (*journal.Store, error) {
	_, _, n, err := d.replica(u, v, i)
	if err != nil {
		return nil, err
	}
	store, err := journal.Open(dir)
	if err != nil {
		return nil, err
	}
	n.AttachJournal(store, snapshotEvery)
	return store, nil
}

// KillReplica simulates an NJS process crash at one replica of a replicated
// site, then sweeps the pool's health checks so the dead replica's breaker
// trips: from this instant no new admission is routed to it, and reads
// pinned to its jobs fail fast with pool.ErrReplicaDown until RestartReplica
// swaps a recovered NJS back in.
func (d *Deployment) KillReplica(u core.Usite, v core.Vsite, i int) error {
	_, set, n, err := d.replica(u, v, i)
	if err != nil {
		return err
	}
	n.Kill()
	set.CheckNow()
	return nil
}

// RestartReplica boots a replacement NJS from the replica's journal store
// under the tag it journaled its job IDs with, re-wires its peer client,
// swaps it into the pool under that stable name (which re-installs the login
// mapper and closes the breaker), and resumes the recovered workload.
func (d *Deployment) RestartReplica(u core.Usite, v core.Vsite, i int, store *journal.Store, snapshotEvery int) error {
	site, set, _, err := d.replica(u, v, i)
	if err != nil {
		return err
	}
	var vc njs.VsiteConfig
	found := false
	for _, c := range site.Spec.Vsites {
		if c.Name == v {
			vc, found = c, true
			break
		}
	}
	if !found {
		return fmt.Errorf("testbed: no vsite spec %q at %s", v, u)
	}
	n, err := deploy.BuildReplica(u, vc, d.Clock, pool.ReplicaTag(i), store, snapshotEvery)
	if err != nil {
		return err
	}
	n.SetPeers(protocol.NewClient(d.Net, site.cred, d.CA, d.Registry))
	if err := set.SetService(pool.ReplicaTag(i), n); err != nil {
		return err
	}
	site.Replicas[v][i] = n
	n.ResumeRecovered()
	return nil
}

// KillSite simulates an NJS process crash at a site: the NJS stops
// journaling and every pending clock callback it owns becomes a no-op. The
// gateway keeps running (the §5.2 split survives an inner restart); calls
// reaching the dead NJS are refused or see its frozen state until
// RestartSite swaps in the recovered one.
func (d *Deployment) KillSite(u core.Usite) error {
	site, ok := d.Sites[u]
	if !ok {
		return fmt.Errorf("testbed: unknown usite %q", u)
	}
	if site.NJS == nil {
		return fmt.Errorf("testbed: %s is replicated; use KillReplica", u)
	}
	site.NJS.Kill()
	return nil
}

// RestartSite boots a replacement NJS from the journal store, re-wires it
// (peer client, gateway, login mapping), and resumes the recovered workload.
func (d *Deployment) RestartSite(u core.Usite, store *journal.Store, snapshotEvery int) error {
	site, ok := d.Sites[u]
	if !ok {
		return fmt.Errorf("testbed: unknown usite %q", u)
	}
	if site.NJS == nil {
		return fmt.Errorf("testbed: %s is replicated; use RestartReplica", u)
	}
	n, err := njs.Recover(store, njs.Config{
		Usite:  site.Spec.Usite,
		Clock:  d.Clock,
		Vsites: site.Spec.Vsites,
	}, snapshotEvery)
	if err != nil {
		return err
	}
	n.SetPeers(protocol.NewClient(d.Net, site.cred, d.CA, d.Registry))
	site.Gateway.SetNJS(n) // installs the login mapper
	site.NJS = n
	n.ResumeRecovered()
	return nil
}

// Close tears down split-site sockets and managed-site controllers.
func (d *Deployment) Close() {
	for _, s := range d.Sites {
		if s.Front != nil {
			s.Front.Close()
		}
		if s.inner != nil {
			s.inner.Close()
		}
	}
	for _, m := range d.managed {
		m.Close()
	}
}

// Usites lists the deployed sites in declaration order.
func (d *Deployment) Usites() []core.Usite {
	return append([]core.Usite(nil), d.order...)
}

// Targets lists every Vsite of every site, in declaration order.
func (d *Deployment) Targets() []core.Target {
	var out []core.Target
	for _, u := range d.order {
		for _, vc := range d.Sites[u].Spec.Vsites {
			out = append(out, core.Target{Usite: u, Vsite: vc.Name})
		}
	}
	return out
}

// NewUser issues a user certificate and maps the DN to the login uid at
// every Vsite of every site — the paper's uniform UNICORE user-id backed by
// per-site mappings.
func (d *Deployment) NewUser(commonName, organisation, uid string) (*pki.Credential, error) {
	cred, err := d.CA.IssueUser(commonName, organisation)
	if err != nil {
		return nil, err
	}
	dn := cred.DN()
	for _, u := range d.order {
		site := d.Sites[u]
		site.Users.AddUser(dn, "")
		for _, vc := range site.Spec.Vsites {
			if err := site.Users.AddMapping(dn, vc.Name, uudb.Login{UID: uid, Groups: []string{"unicore"}}); err != nil {
				return nil, err
			}
		}
	}
	return cred, nil
}

// UserClient builds a protocol client for a user credential.
func (d *Deployment) UserClient(cred *pki.Credential) *protocol.Client {
	return protocol.NewClient(d.Net, cred, d.CA, d.Registry)
}

// JPA builds a job preparation agent for a user.
func (d *Deployment) JPA(cred *pki.Credential) *client.JPA {
	return client.NewJPA(d.UserClient(cred))
}

// Session opens a session (context-aware submit/monitor/control with
// server-push event streams) for a user at one Usite. Under the virtual
// clock, drive the deployment from another goroutine (go d.Run(...)) while a
// Session.Await or Watch blocks — its long-poll wakes as events fire.
func (d *Deployment) Session(cred *pki.Credential, usite core.Usite) *client.Session {
	return client.NewSession(d.UserClient(cred), usite)
}

// Run drives the virtual clock until no events remain (or the safety cap is
// hit) and returns the number of fired events.
func (d *Deployment) Run(maxEvents int) int {
	return d.Clock.RunUntilIdle(maxEvents)
}

// Metrics returns one live telemetry snapshot per origin at a site — the
// gateway's own plus everything behind it (a single NJS, or the pool and
// every replica) — the in-process form of a MsgMetrics scrape, for
// integration tests and tools.
func (d *Deployment) Metrics(u core.Usite) ([]telemetry.Snapshot, error) {
	site, ok := d.Sites[u]
	if !ok {
		return nil, fmt.Errorf("testbed: unknown usite %q", u)
	}
	return site.Gateway.Metrics(), nil
}

// Trace collects every span recorded under one trace ID at a site, across
// all tiers, ordered by start time — the per-request path of one client call
// (gateway dispatch → pool routing → NJS admission → journal sync).
func (d *Deployment) Trace(u core.Usite, trace string) ([]telemetry.Span, error) {
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

// Accounting collects every Vsite's batch accounting, tagged with target and
// machine performance, for package accounting.
func (d *Deployment) Accounting() []accounting.Record {
	var out []accounting.Record
	for _, u := range d.order {
		out = append(out, d.SiteAccounting(u)...)
	}
	return out
}

// SiteAccounting collects one Usite's batch accounting (the per-site slice of
// Accounting — the charge-back summary a federated gateway advertises).
func (d *Deployment) SiteAccounting(u core.Usite) []accounting.Record {
	site, ok := d.Sites[u]
	if !ok {
		return nil
	}
	// A replicated site runs one RMS per replica; each contributes its share
	// of the Vsite's accounting.
	var njss []*njs.NJS
	if m, managed := d.managed[u]; managed {
		njss = m.Replicas()
	} else if site.NJS != nil {
		njss = []*njs.NJS{site.NJS}
	} else {
		for _, vc := range site.Spec.Vsites {
			njss = append(njss, site.Replicas[vc.Name]...)
		}
	}
	var out []accounting.Record
	for _, n := range njss {
		out = append(out, n.Accounting()...)
	}
	return out
}

// German reproduces the §5.7 deployment: "UNICORE is running at different
// German sites including the Forschungszentrum Jülich (FZ Jülich), the
// Computing Centers of the universities of Stuttgart (RUS) and Karlsruhe
// (RUKA), the Leibniz Computing Center ... in Munich (LRZ), the Konrad-Zuse
// Zentrum für Informationstechnik in Berlin (ZIB), and the Deutscher
// Wetterdienst in Offenbach (DWD). The systems covered are Cray T3E,
// Fujitsu VPP/700, IBM SP-2, and NEC SX-4."
func German() (*Deployment, error) {
	return New(GermanSpecs()...)
}

// GermanSpecs returns the six §5.7 site specifications (exported so callers
// can toggle Split or scheduler options before deploying).
func GermanSpecs() []SiteSpec {
	return []SiteSpec{
		{Usite: "FZJ", Vsites: []njs.VsiteConfig{{Name: "T3E", Profile: machine.CrayT3E(512), Backfill: true}}},
		{Usite: "RUS", Vsites: []njs.VsiteConfig{{Name: "SX4", Profile: machine.NECSX4(32)}}},
		{Usite: "RUKA", Vsites: []njs.VsiteConfig{{Name: "SP2", Profile: machine.IBMSP2(256), Backfill: true}}},
		{Usite: "LRZ", Vsites: []njs.VsiteConfig{{Name: "VPP", Profile: machine.FujitsuVPP700(52)}}},
		{Usite: "ZIB", Vsites: []njs.VsiteConfig{{Name: "T3E", Profile: machine.CrayT3E(408), Backfill: true}}},
		{Usite: "DWD", Vsites: []njs.VsiteConfig{{Name: "SX4", Profile: machine.NECSX4(16)}}},
	}
}

// SingleSite builds a minimal one-site deployment (the quickstart topology):
// one Usite with one generic-cluster Vsite.
func SingleSite(usite core.Usite, vsite core.Vsite, nodes int) (*Deployment, error) {
	return New(SiteSpec{
		Usite:  usite,
		Vsites: []njs.VsiteConfig{{Name: vsite, Profile: machine.GenericCluster(nodes)}},
	})
}

// ReplicatedSite builds a one-Usite deployment whose generic-cluster Vsite
// is served by a pool of NJS replicas behind health-checked failover
// routing — the scaled-out server tier (package pool).
func ReplicatedSite(usite core.Usite, vsite core.Vsite, nodes, replicas int, policy pool.Policy) (*Deployment, error) {
	return New(SiteSpec{
		Usite:    usite,
		Vsites:   []njs.VsiteConfig{{Name: vsite, Profile: machine.GenericCluster(nodes)}},
		Replicas: replicas,
		Policy:   policy,
	})
}

// QueueConfig is re-exported for site specs that want custom queues.
type QueueConfig = codine.Queue
