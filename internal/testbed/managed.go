package testbed

// Controller-managed deployments: a site booted from a declarative topology
// spec (deploy.TopologySpec) whose replica pools a controller.Controller
// keeps converged — build, heal, roll, autoscale. This is the testbed face
// of `unicore-ctl apply -f` and the only way the testbed stands up a pool:
// the failover and chaos suites crash and heal the stack operators run.

import (
	"fmt"
	"strings"

	"unicore/internal/controller"
	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/njs"
)

// NewManaged stands up a deployment consisting of one controller-managed
// site booted from a topology spec — the spec-file twin of New(SiteSpec...).
// Additional managed sites can join later with ApplySpec.
func NewManaged(spec *deploy.TopologySpec, u core.Usite, stateRoot string) (*Deployment, *ManagedSite, error) {
	d, err := newDeployment()
	if err != nil {
		return nil, nil, err
	}
	m, err := d.ApplySpec(spec, u, stateRoot)
	if err != nil {
		return nil, nil, err
	}
	return d, m, nil
}

// ManagedSite is one controller-managed Usite of a deployment: a
// controller.Stack — the builder `unicore-ctl apply` runs — registered on the
// deployment's in-process network, plus the fault injection a test needs.
type ManagedSite struct {
	*controller.Stack
	// Site is the deployed site, registered in Deployment.Sites like a
	// single-NJS one (Site.Pool is the stack's router; Site.NJS stays nil —
	// ask Stack.Replicas for the live instances).
	Site *Site
}

// ApplySpec boots (or re-declares) a controller-managed site from a parsed
// topology spec. On first use for a Usite it boots a controller.Stack for
// the site, whose first reconcile pass leaves the declared replicas serving;
// later calls hand the new declaration to the stack and reconcile once.
// stateRoot roots the per-replica journals
// (<stateRoot>/<usite>/<vsite>/<tag>); empty means spec.JournalDir, and
// memory-only replicas when that is empty too. Replicas reach every other
// site of the deployment, whichever was deployed first, and whatever the
// spec's peers block names.
func (d *Deployment) ApplySpec(spec *deploy.TopologySpec, u core.Usite, stateRoot string) (*ManagedSite, error) {
	if m, ok := d.managed[u]; ok {
		return m, m.Apply(spec)
	}
	if _, dup := d.Sites[u]; dup {
		return nil, fmt.Errorf("testbed: %s is already deployed as a single-NJS site", u)
	}
	host := hostOf(u)
	srvCred, err := d.CA.IssueServer("gateway."+strings.ToLower(string(u)), host)
	if err != nil {
		return nil, err
	}
	stack, err := controller.NewStack(controller.StackConfig{
		Spec:         spec,
		Usite:        u,
		Cred:         srvCred,
		CA:           d.CA,
		Clock:        d.Clock,
		StateRoot:    stateRoot,
		FedTransport: d.Net,
	})
	if err != nil {
		return nil, err
	}
	for _, peer := range d.Registry.Sites() {
		url, _ := d.Registry.Lookup(peer)
		stack.Peers.Registry().Add(peer, url)
	}
	// Mirror the declared Vsites into a SiteSpec so the generic helpers
	// (NewUser, Targets) treat the managed site like any other.
	tspec := SiteSpec{Usite: u}
	for _, v := range stack.Controller.Desired().Vsites {
		vc, err := v.NJSConfig()
		if err != nil {
			return nil, err
		}
		tspec.Vsites = append(tspec.Vsites, vc)
	}
	m := &ManagedSite{
		Stack: stack,
		Site:  &Site{Spec: tspec, Users: stack.Users, Pool: stack.Router, Gateway: stack.Gateway, cred: srvCred},
	}
	d.Net.Register(host, stack.Gateway)
	// A stack's registry is seeded once, above; the stacks already running
	// learn of this site here, beside the deployment's own registry.
	d.Registry.Add(u, "https://"+host)
	for _, other := range d.managed {
		other.Peers.Registry().Add(u, "https://"+host)
	}
	d.Sites[u] = m.Site
	d.order = append(d.order, u)
	if d.managed == nil {
		d.managed = make(map[core.Usite]*ManagedSite)
	}
	d.managed[u] = m
	return m, nil
}

// KillReplica crashes one managed replica by pool tag: the journal is
// synced (the WAL made it to disk — the durable-ack contract), the NJS
// dies, and a health sweep trips its breaker so routing fails over. The
// controller's next pass heals it from the journal.
func (m *ManagedSite) KillReplica(v core.Vsite, tag string) error {
	set, ok := m.Router.Set(v)
	if !ok {
		return fmt.Errorf("testbed: no vsite %q at %s", v, m.Site.Spec.Usite)
	}
	svc, ok := set.Service(tag)
	if !ok {
		return fmt.Errorf("testbed: no replica %q at %s/%s", tag, m.Site.Spec.Usite, v)
	}
	n, ok := svc.(*njs.NJS)
	if !ok {
		return fmt.Errorf("testbed: replica %q is not an NJS", tag)
	}
	if err := n.SyncJournal(); err != nil {
		return err
	}
	n.Kill()
	set.CheckNow()
	return nil
}

// Reconcile runs one controller pass — the virtual-clock-friendly way to
// drive convergence at exactly the instants a test cares about.
func (m *ManagedSite) Reconcile() (controller.Result, error) {
	return m.Controller.ReconcileNow()
}
