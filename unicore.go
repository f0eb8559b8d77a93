// Package unicore is a Go reproduction of the UNICORE architecture —
// "seamless access to distributed resources" (M. Romberg, HPDC-8, 1999).
//
// UNICORE is a three-tier grid middleware. At the user tier, the Job
// Preparation Agent builds abstract, system-independent jobs and the Job
// Monitor Controller tracks them. At the server tier, each computer centre
// (Usite) runs a gateway — an https endpoint doing X.509 authentication and
// certificate-to-login mapping — and a Network Job Supervisor (NJS) that
// translates ("incarnates") abstract jobs into real batch jobs, schedules
// their dependency graph, stages data, and exchanges job groups with peer
// sites. At the batch tier, each execution system (Vsite) runs its native
// resource-management system, reproduced here by a deterministic
// discrete-event batch simulator with the 1999 machine inventory (Cray T3E,
// Fujitsu VPP/700, IBM SP-2, NEC SX-4).
//
// This package is the public facade: it re-exports the user-level API so a
// downstream program can build jobs, deploy in-process testbeds, submit,
// monitor, and broker without reaching into the internal packages.
// ExampleSingleSite (example_test.go, run by go test) is the shortest path
// through all three tiers: deploy a site, issue a user, build, submit, drive
// the virtual clock, read the status.
//
// README.md maps the three tiers onto the packages and points to the
// experiment index of the reproduced figures and claims (bench_test.go).
package unicore

import (
	"errors"
	"fmt"
	"net/url"

	"unicore/internal/ajo"
	"unicore/internal/asi"
	"unicore/internal/broker"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/gateway"
	"unicore/internal/journal"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/staging"
	"unicore/internal/testbed"
)

// Identity and addressing vocabulary (paper §4).
type (
	// Usite names a UNICORE site — a computer centre with a gateway and NJS.
	Usite = core.Usite
	// Vsite names an execution system within a Usite.
	Vsite = core.Vsite
	// Target addresses a Vsite globally as Usite/Vsite.
	Target = core.Target
	// JobID identifies a consigned UNICORE job.
	JobID = core.JobID
	// DN is a certificate distinguished name — the unique UNICORE user-id.
	DN = core.DN
)

// Job model (paper §5.3, Figure 3).
type (
	// AbstractJob is the recursive AJO job group.
	AbstractJob = ajo.AbstractJob
	// Outcome carries the status and results of an abstract action.
	Outcome = ajo.Outcome
	// Status is the state of an action (the JMC icon colours).
	Status = ajo.Status
	// Summary is the compact job status the JMC polls.
	Summary = ajo.Summary
	// ActionID identifies one action within a job.
	ActionID = ajo.ActionID
)

// Status values.
const (
	StatusPending    = ajo.StatusPending
	StatusQueued     = ajo.StatusQueued
	StatusRunning    = ajo.StatusRunning
	StatusSuccessful = ajo.StatusSuccessful
	StatusFailed     = ajo.StatusFailed
	StatusNotDone    = ajo.StatusNotDone
	StatusAborted    = ajo.StatusAborted
)

// Resource model (paper §5.4).
type (
	// ResourceRequest is a task's resource demand.
	ResourceRequest = resources.Request
	// ResourcePage describes a Vsite's capabilities and software.
	ResourcePage = resources.Page
	// Software is one compiler, library or application package a resource
	// page lists.
	Software = resources.Software
)

// User tier (paper §4.1).
type (
	// Builder assembles abstract jobs the way the JPA GUI does.
	Builder = client.Builder
	// JPA is the job preparation agent.
	JPA = client.JPA
	// Credential couples an X.509 certificate with its key.
	Credential = pki.Credential
	// Authority is the certification authority whose certificates the mutual
	// TLS handshake trusts (the paper's §4.2 "UNICORE CA").
	Authority = pki.Authority
	// Client is the protocol client underneath JPA and Session: one
	// authenticated frame stream per gateway. The broker refreshes its load
	// information through one.
	Client = protocol.Client
	// Transport carries the persistent frame stream to a gateway:
	// protocol.NewHTTPTransport for real deployments, a Deployment's
	// in-process network for testbeds.
	Transport = protocol.Transport
	// Session is the client handle: context-aware submit/monitor/control
	// for one user at one Usite, with server-push job event streams
	// (Session.Watch / Session.Await) replacing interval polling. Open one
	// with Dial or Deployment.Session.
	Session = client.Session
	// JobEvent is one server-push job lifecycle notification delivered by
	// Session.Watch.
	JobEvent = client.JobEvent
)

// DialOption configures one Dial.
type DialOption func(*dialConfig)

type dialConfig struct {
	usite  Usite
	cred   *Credential
	ca     *Authority
	client *Client
}

// WithIdentity sets the caller's credential and the certification authority
// gateway certificates are validated against — the two halves of the mutual
// TLS handshake and the envelope signatures. Required unless WithClient
// supplies a fully built client.
func WithIdentity(cred *Credential, ca *Authority) DialOption {
	return func(c *dialConfig) { c.cred, c.ca = cred, ca }
}

// WithSite names the Usite behind the dialled URL explicitly. Without it the
// URL's hostname is the site name — right for real deployments where gateways
// are addressed by their site's DNS name.
func WithSite(usite Usite) DialOption {
	return func(c *dialConfig) { c.usite = usite }
}

// WithClient reuses an existing protocol client — its identity, transport,
// live streams, and registry — instead of building a fresh one; a caller who
// needs a lossy transport or a retry count sets it on the client. The
// dialled URL is added to its registry.
func WithClient(c *Client) DialOption {
	return func(cfg *dialConfig) { cfg.client = c }
}

// Dial opens a Session to the gateway at gatewayURL: the single entry point
// of the user tier. The zero-option call needs an identity —
//
//	sess, err := unicore.Dial("https://fzj.example:4433",
//		unicore.WithIdentity(cred, ca))
//
// — and defaults everything else: the Usite is the URL's hostname (WithSite
// overrides) and the client is a fresh one over the mutual-TLS HTTP transport
// (WithClient substitutes one built by hand).
// For in-process testbeds, Deployment.Session remains the shortcut.
func Dial(gatewayURL string, opts ...DialOption) (*Session, error) {
	var cfg dialConfig
	for _, o := range opts {
		o(&cfg)
	}
	usite := cfg.usite
	if usite == "" {
		u, err := url.Parse(gatewayURL)
		if err != nil {
			return nil, fmt.Errorf("unicore: dial %q: %w", gatewayURL, err)
		}
		if u.Hostname() == "" {
			return nil, fmt.Errorf("unicore: dial %q: no hostname to name the Usite after (use WithSite)", gatewayURL)
		}
		usite = Usite(u.Hostname())
	}
	c := cfg.client
	if c == nil {
		if cfg.cred == nil || cfg.ca == nil {
			return nil, errors.New("unicore: Dial needs WithIdentity (or a prebuilt client via WithClient)")
		}
		c = protocol.NewClient(gateway.ClientTransport(cfg.cred, cfg.ca), cfg.cred, cfg.ca, protocol.NewRegistry())
	}
	if gatewayURL != "" {
		c.Registry().Add(usite, gatewayURL)
	}
	return client.NewSession(c, usite), nil
}

// Bulk data staging (package staging): Session.Upload streams a workstation
// file into a Vsite's spool in CRC-checked chunks and returns the transfer
// handle a Builder.ImportStaged task references, so huge inputs never ride
// inline in the consign frame; Session.Download streams a Uspace result to
// an io.Writer through a windowed parallel fetch engine with incremental
// checksum verification and chunk-level failover retries.
type (
	// TransferOptions tunes the chunked transfer engines (chunk size,
	// in-flight window, retries) — set Session.Transfer to deviate from the
	// defaults.
	TransferOptions = staging.Options
	// TransferProgress is the state a streaming download reached
	// (Session.Download).
	TransferProgress = staging.Progress
)

// DefaultTransferChunk is the default ranged-request size of the transfer
// engines.
const DefaultTransferChunk = staging.DefaultChunkSize

// NewJob starts building a job destined for target.
func NewJob(name string, target Target) *Builder { return client.NewJob(name, target) }

// Display renders an outcome tree as the JMC's coloured status display.
func Display(o *Outcome) string { return o.Render() }

// Deployments (paper §5.7 and Figure 2).
type (
	// Deployment is an in-process multi-Usite UNICORE installation.
	Deployment = testbed.Deployment
	// SiteSpec declares one Usite of a deployment.
	SiteSpec = testbed.SiteSpec
	// WorkloadConfig parameterises the synthetic job mix.
	WorkloadConfig = testbed.WorkloadConfig
	// JournalStore is the write-ahead journal + snapshot store behind a
	// durable single-NJS site (Deployment.EnableDurability); a ManagedSite
	// keeps its replicas' stores itself.
	JournalStore = journal.Store
)

// NewDeployment deploys the given sites in-process under a virtual clock.
func NewDeployment(specs ...SiteSpec) (*Deployment, error) { return testbed.New(specs...) }

// Server-tier replica pools (the horizontal scale-out of docs/ARCHITECTURE.md;
// package pool): a Vsite can be served by several NJS replicas behind
// health-checked failover routing. A pool has one placement rule: new work
// goes round-robin over the replicas that accept it.

// ReplicaPolicy selects nothing: the pool has one placement rule. It stays
// only because bench/ still passes it to ReplicatedSite, and goes with the
// bench change of ROADMAP item 1.
type ReplicaPolicy int

// PoolRoundRobin is the only ReplicaPolicy; like the type, it selects
// nothing and goes with ROADMAP item 1.
const PoolRoundRobin ReplicaPolicy = 0

// ReplicatedSite deploys one Usite whose generic-cluster Vsite is served by
// a pool of memory-only NJS replicas. NewManaged is the general form, for
// the failover lifecycle: journaled replicas that can be crashed and healed.
// The ReplicaPolicy parameter is ignored (see ReplicaPolicy).
func ReplicatedSite(usite Usite, vsite Vsite, nodes, replicas int, _ ReplicaPolicy) (*Deployment, error) {
	return testbed.ReplicatedSite(usite, vsite, nodes, replicas)
}

type (
	// TopologySpec is the declarative topology document `unicore-ctl apply
	// -f` consumes: per-Vsite machines, replica counts and fleet generations.
	TopologySpec = deploy.TopologySpec
	// ManagedSite is a Usite booted from a TopologySpec, its replica pools
	// kept converged by the site's controller: KillReplica crashes one
	// replica, Reconcile heals it from its journal.
	ManagedSite = testbed.ManagedSite
)

// ParseTopology parses and validates a topology document (strict JSON).
func ParseTopology(data []byte) (*TopologySpec, error) { return deploy.ParseTopology(data) }

// NewManaged deploys the spec's site usite in-process as a ManagedSite — the
// stack `unicore-ctl apply` runs. Each replica journals under
// stateRoot/<usite>/<vsite>/<tag>; an empty stateRoot falls back to the
// spec's journalDir, and to memory-only replicas when that is empty too.
func NewManaged(spec *TopologySpec, usite Usite, stateRoot string) (*Deployment, *ManagedSite, error) {
	return testbed.NewManaged(spec, usite, stateRoot)
}

// OpenJournal opens (or creates) a journal store rooted at dir — the kind of
// store a durable NJS is built over and a restarted one recovers from.
func OpenJournal(dir string) (*JournalStore, error) { return journal.Open(dir) }

// German deploys the six-site 1999 German production testbed of §5.7.
func German() (*Deployment, error) { return testbed.German() }

// SingleSite deploys a minimal one-site installation.
func SingleSite(usite Usite, vsite Vsite, nodes int) (*Deployment, error) {
	return testbed.SingleSite(usite, vsite, nodes)
}

// GenerateWorkload builds a deterministic synthetic job mix.
func GenerateWorkload(cfg WorkloadConfig) ([]*AbstractJob, error) {
	return testbed.GenerateWorkload(cfg)
}

// DefaultWorkload returns the standard mixed workload configuration.
func DefaultWorkload(seed int64, jobs int, targets []Target) WorkloadConfig {
	return testbed.DefaultWorkload(seed, jobs, targets)
}

// Resource broker (paper §6 outlook).
type (
	// Broker ranks Vsites for abstract resource requests.
	Broker = broker.Broker
	// BrokerPolicy selects the broker's ranking strategy.
	BrokerPolicy = broker.Policy
)

// Broker policies.
const (
	LeastLoaded    = broker.LeastLoaded
	FastestMachine = broker.FastestMachine
	BestTurnaround = broker.BestTurnaround
)

// NewBroker creates a resource broker with the given policy.
func NewBroker(policy BrokerPolicy) *Broker { return broker.New(policy) }

// Application-specific interfaces (paper §6: "application specific
// interfaces for standard packages like Ansys or Pamcrash").
type (
	// ApplicationInterface builds jobs in application terms for one
	// standard package.
	ApplicationInterface = asi.Interface
	// ApplicationTemplate declares a package's parameters and renderer.
	ApplicationTemplate = asi.Template
)

// Gaussian94 returns the computational-chemistry interface.
func Gaussian94() *ApplicationInterface { return asi.Gaussian94() }

// Ansys returns the structural-analysis interface.
func Ansys() *ApplicationInterface { return asi.Ansys() }

// PamCrash returns the crash-simulation interface.
func PamCrash() *ApplicationInterface { return asi.PamCrash() }

// ApplicationCatalog lists the built-in application interfaces.
func ApplicationCatalog() []*ApplicationInterface { return asi.Catalog() }
