package controller

// Stack boots a whole serving site from a declarative topology spec: UUDB,
// replica pools, gateway, and the controller that keeps the pools converged
// on the spec. It is the programmatic half of `unicore-ctl apply -f` — the
// daemons and tools hand it a parsed TopologySpec and get back a live
// deployment whose replicas the controller builds, heals, rolls, and
// scales, with per-replica journals rooted under the spec's journalDir.

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"unicore/internal/accounting"
	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/federation"
	"unicore/internal/gateway"
	"unicore/internal/journal"
	"unicore/internal/njs"
	"unicore/internal/pki"
	"unicore/internal/pool"
	"unicore/internal/protocol"
	"unicore/internal/sim"
	"unicore/internal/telemetry"
	"unicore/internal/uudb"
)

// DefaultSnapshotEvery bounds journal growth for spec-managed replicas that
// do not declare their own snapshot cadence.
const DefaultSnapshotEvery = 1024

// StackConfig assembles one site's stack from a topology spec.
type StackConfig struct {
	// Spec is the parsed, validated topology document.
	Spec *deploy.TopologySpec
	// Usite selects which declared site to boot.
	Usite core.Usite
	// Cred and CA are the gateway's server credential and trust root.
	Cred *pki.Credential
	CA   *pki.Authority
	// Clock drives everything (sim.RealClock{} in daemons).
	Clock sim.Scheduler
	// StateRoot overrides the spec's journalDir; when both are empty the
	// replicas are memory-only (crashes heal empty — testbeds only).
	StateRoot string
	// Interval is the controller's reconcile cadence (default
	// DefaultInterval).
	Interval time.Duration
	// AdvertiseURL is this gateway's base URL in federation
	// self-advertisements — what peer gateways dial to forward work here
	// (default: the spec's own peers entry for Usite). One of the two is
	// required when the peers block names sites other than this one.
	AdvertiseURL string
	// FedTransport carries everything this site sends to other sites —
	// the replicas' sub-job consigns and Uspace transfers, federation
	// gossip and forwarded consigns (default: a mutual-TLS transport over
	// Cred and CA). Testbeds inject their in-process network here.
	FedTransport protocol.Transport
	// GossipInterval is the federation gossip cadence (default one minute).
	GossipInterval time.Duration
}

// Stack is one booted site: the gateway fronting a controller-managed
// replica pool router.
type Stack struct {
	Gateway    *gateway.Gateway
	Router     *pool.Router
	Controller *Controller
	Users      *uudb.DB
	// Peers is the client every replica — built now or by a later reconcile
	// pass — distributes job groups and pulls Uspace files through, speaking
	// under the gateway's server credential. Its registry starts from the
	// spec's peers block; callers that know of more sites add them there.
	Peers *protocol.Client
	// Federation is the gateway's grid membership, nil when the spec
	// declares no peers beyond this site itself.
	Federation *federation.Federation

	usite     core.Usite
	clock     sim.Scheduler
	stateRoot string

	mu     sync.Mutex
	stores map[string]*journal.Store // vsite/tag → open journal store
}

// NewStack builds the stack and runs the first reconcile pass, so the
// returned deployment is already serving the declared topology. Call
// Controller.Start to arm the continuous loop (without it the pools stay at
// their booted size), and Close on shutdown.
func NewStack(cfg StackConfig) (*Stack, error) {
	if cfg.Spec == nil {
		return nil, errors.New("controller: nil topology spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	site, ok := cfg.Spec.Site(cfg.Usite)
	if !ok {
		return nil, fmt.Errorf("controller: topology declares no usite %q", cfg.Usite)
	}
	if cfg.Clock == nil {
		return nil, errors.New("controller: nil clock")
	}
	users, err := deploy.BuildUsers(site.Usite, site.Users, cfg.Clock)
	if err != nil {
		return nil, err
	}
	router, err := pool.NewRouter(site.Usite)
	if err != nil {
		return nil, err
	}
	rt := cfg.FedTransport
	if rt == nil {
		rt = gateway.ClientTransport(cfg.Cred, cfg.CA)
	}
	routes := protocol.NewRegistry()
	for _, p := range cfg.Spec.Peers {
		routes.Add(p.Usite, p.URL)
	}
	st := &Stack{
		Router:    router,
		Users:     users,
		Peers:     protocol.NewClient(rt, cfg.Cred, cfg.CA, routes),
		usite:     site.Usite,
		clock:     cfg.Clock,
		stateRoot: cfg.StateRoot,
		stores:    make(map[string]*journal.Store),
	}
	if st.stateRoot == "" {
		st.stateRoot = cfg.Spec.JournalDir
	}
	ctl, err := New(Config{
		Site:     *site,
		Router:   router,
		Clock:    cfg.Clock,
		Interval: cfg.Interval,
		Build:    st.build,
		Recover:  st.recover,
		Retire:   st.retire,
	})
	if err != nil {
		return nil, err
	}
	st.Controller = ctl
	gw, err := gateway.New(gateway.Config{
		Usite:   site.Usite,
		Cred:    cfg.Cred,
		CA:      cfg.CA,
		Users:   users,
		Backend: router,
	})
	if err != nil {
		return nil, err
	}
	gw.Telemetry().SetNow(cfg.Clock.Now)
	gw.AddMetricsSource(func() []telemetry.Snapshot {
		return []telemetry.Snapshot{ctl.Telemetry().Snapshot()}
	})
	st.Gateway = gw
	if err := st.federate(cfg, rt); err != nil {
		return nil, err
	}
	if _, err := ctl.ReconcileNow(); err != nil {
		return nil, errors.Join(err, st.Close())
	}
	if st.Federation != nil {
		st.Federation.Start(cfg.GossipInterval)
	}
	return st, nil
}

// federate attaches the federation half when the spec's peers block names
// sites other than this one.
func (s *Stack) federate(cfg StackConfig, rt protocol.Transport) error {
	// The entry for this site itself — the shared one-spec-per-grid idiom,
	// which also carries the URL the rest of the grid dials it at — is no
	// peer.
	var peers []deploy.TopologyPeer
	for _, p := range cfg.Spec.Peers {
		if p.Usite != s.usite {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		return nil
	}
	url := cfg.AdvertiseURL
	if self, ok := cfg.Spec.Peer(s.usite); ok && url == "" {
		url = self.URL
	}
	if url == "" {
		return fmt.Errorf("controller: topology declares peers but no advertise URL for %s", s.usite)
	}
	// Federation routing gets its own registry so it never collides with
	// the replicas' transfer routes in Peers.
	client := protocol.NewClient(rt, cfg.Cred, cfg.CA, protocol.NewRegistry())
	fed, err := deploy.Federate(s.Gateway, client, cfg.Clock, url, peers, func() []accounting.Record {
		var recs []accounting.Record
		for _, n := range s.Replicas() {
			recs = append(recs, n.Accounting()...)
		}
		return recs
	})
	s.Federation = fed
	return err
}

// Replicas lists the live NJS behind every pool, in Vsite then tag order.
func (s *Stack) Replicas() []*njs.NJS {
	var out []*njs.NJS
	for _, set := range s.Router.Sets() {
		for _, tag := range set.Names() {
			if svc, ok := set.Service(tag); ok {
				if n, ok := svc.(*njs.NJS); ok {
					out = append(out, n)
				}
			}
		}
	}
	return out
}

// Apply re-declares the stack's site from a new spec document and
// reconciles once — the `unicore-ctl apply -f` entry point.
func (s *Stack) Apply(spec *deploy.TopologySpec) error {
	site, ok := spec.Site(s.usite)
	if !ok {
		return fmt.Errorf("controller: topology declares no usite %q", s.usite)
	}
	if err := s.Controller.Apply(*site); err != nil {
		return err
	}
	_, err := s.Controller.ReconcileNow()
	return err
}

func storeKey(v core.Vsite, tag string) string { return string(v) + "/" + tag }

// takeStore removes and returns the open journal store of a replica (nil
// for memory-only replicas).
func (s *Stack) takeStore(v core.Vsite, tag string) *journal.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	store := s.stores[storeKey(v, tag)]
	delete(s.stores, storeKey(v, tag))
	return store
}

// build constructs a replica for the controller: journal-backed under
// <stateRoot>/<usite>/<vsite>/<tag> when a state root is declared,
// memory-only otherwise, with the stack's peer client installed.
func (s *Stack) build(v deploy.TopologyVsite, tag string) (njs.Service, error) {
	vc, err := v.NJSConfig()
	if err != nil {
		return nil, err
	}
	var store *journal.Store
	every := v.SnapshotEvery
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	if s.stateRoot != "" {
		store, err = journal.Open(filepath.Join(s.stateRoot, string(s.usite), string(v.Name), tag))
		if err != nil {
			return nil, err
		}
	}
	n, err := deploy.BuildReplica(s.usite, vc, s.clock, tag, store, every)
	if err != nil {
		if store != nil {
			err = errors.Join(err, store.Close())
		}
		return nil, err
	}
	n.SetPeers(s.Peers)
	if store != nil {
		s.mu.Lock()
		s.stores[storeKey(v.Name, tag)] = store
		s.mu.Unlock()
	}
	return n, nil
}

// recover is the heal/roll path: release the crashed instance's journal
// handle, then rebuild from the same directory — the recovered replica
// replays its journal, and the pool's rejoin reconciliation re-homes its
// ack entries.
func (s *Stack) recover(v deploy.TopologyVsite, tag string) (njs.Service, error) {
	if store := s.takeStore(v.Name, tag); store != nil {
		if err := store.Close(); err != nil {
			return nil, fmt.Errorf("controller: releasing journal of %s/%s: %w", v.Name, tag, err)
		}
	}
	return s.build(v, tag)
}

// shutdown retires a live NJS: snapshot (compacting the journal for the next
// recovery) when it has one, then kill.
func shutdown(n *njs.NJS) error {
	if n.Ping() != nil {
		return nil
	}
	var err error
	if n.Journal() != nil {
		err = n.Snapshot()
	}
	n.Kill()
	return err
}

// retire shuts a replaced or scaled-down instance all the way down:
// snapshot, kill, close — every failure reported.
func (s *Stack) retire(v deploy.TopologyVsite, tag string, svc njs.Service) error {
	var errs []error
	if n, ok := svc.(*njs.NJS); ok {
		errs = append(errs, shutdown(n))
	}
	if store := s.takeStore(v.Name, tag); store != nil {
		errs = append(errs, store.Close())
	}
	return errors.Join(errs...)
}

// Close stops the reconcile loop and shuts every replica down cleanly:
// snapshot, kill, close journals — every failure reported.
func (s *Stack) Close() error {
	if s.Federation != nil {
		s.Federation.Stop()
	}
	s.Controller.Stop()
	var errs []error
	for _, n := range s.Replicas() {
		errs = append(errs, shutdown(n))
	}
	s.mu.Lock()
	stores := s.stores
	s.stores = make(map[string]*journal.Store)
	s.mu.Unlock()
	for _, store := range stores {
		errs = append(errs, store.Close())
	}
	return errors.Join(errs...)
}
