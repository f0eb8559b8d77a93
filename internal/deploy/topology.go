package deploy

// One schema describes a site wherever it is written down: a site.json file
// is a TopologySite, and a topology spec is a list of them plus what only a
// whole deployment has — which Usites exist, where the replica journals live,
// who the federation peers are. The controller (internal/controller) diffs a
// spec against the live deployment and converges it; unicore-ctl parses,
// validates, diffs, and applies spec files; unicore-gateway and unicore-njs
// boot from either file kind.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"unicore/internal/codine"
	"unicore/internal/core"
	"unicore/internal/njs"
	"unicore/internal/pool"
	"unicore/internal/uudb"
)

// TopologyVersion is the spec format this tree reads and writes.
const TopologyVersion = 1

// TopologySpec is the desired state of a whole deployment.
type TopologySpec struct {
	// Version is the spec format version (TopologyVersion).
	Version int `json:"version"`
	// JournalDir roots the per-replica write-ahead journals:
	// <JournalDir>/<usite>/<vsite>/<replica-tag>. Empty disables durability
	// (memory-only replicas; a crashed replica heals empty).
	JournalDir string `json:"journalDir,omitempty"`
	// Sites lists every Usite of the deployment.
	Sites []TopologySite `json:"sites"`
	// Peers lists the federation peer gateways every site of this
	// deployment gossips with. A peer that is also declared under Sites is
	// skipped at boot for its own stack (a gateway never peers with
	// itself), so one shared spec can describe a whole federation.
	Peers []TopologyPeer `json:"peers,omitempty"`
}

// TopologyPeer declares one federation peer gateway.
type TopologyPeer struct {
	Usite core.Usite `json:"usite"`
	// URL is the peer gateway's base URL ("https://gw.fzj.unicore").
	URL string `json:"url"`
}

// TopologySite declares one Usite — the document a site.json file holds and
// one element of a topology spec's sites list.
type TopologySite struct {
	Usite core.Usite `json:"usite"`
	// Vsites lists the execution systems of the site.
	Vsites []TopologyVsite `json:"vsites"`
	// Users maps certificate DNs to per-Vsite logins.
	Users []UserMapping `json:"users,omitempty"`
}

// QueueConfig is the JSON description of one batch queue.
type QueueConfig struct {
	Name       string `json:"name"`
	Slots      int    `json:"slots"`
	MaxTimeSec int    `json:"maxTimeSec,omitempty"`
}

// UserMapping is one UUDB entry.
type UserMapping struct {
	DN     core.DN                   `json:"dn"`
	Email  string                    `json:"email,omitempty"`
	Logins map[core.Vsite]uudb.Login `json:"logins"`
	Extra  map[string]string         `json:"extra,omitempty"`
}

// TopologyVsite declares one execution system and its replica pool.
type TopologyVsite struct {
	Name core.Vsite `json:"name"`
	// Machine selects a profile: "t3e", "vpp700", "sp2", "sx4", "cluster".
	Machine string `json:"machine"`
	// Processors overrides the profile's default PE count (0 keeps it).
	Processors int `json:"processors,omitempty"`
	// Backfill enables EASY backfill in the batch scheduler.
	Backfill bool `json:"backfill,omitempty"`
	// Queues optionally declares batch queues (default: one "batch" queue).
	Queues []QueueConfig `json:"queues,omitempty"`
	// Replicas is the declared NJS replica count (minimum 1). With an
	// Autoscale block this is the resting size; the controller moves the
	// live count inside [Autoscale.Min, Autoscale.Max]. The single-NJS
	// builder (BuildSite) ignores it, as it does every pool knob below.
	Replicas int `json:"replicas,omitempty"`
	// Policy selects the pool's consign routing: "round-robin",
	// "least-loaded", or "consistent-hash" (default round-robin).
	Policy string `json:"policy,omitempty"`
	// Generation versions the replica fleet. Bumping it makes the
	// controller roll every replica: drain, retire, recover from the
	// journal, rejoin — one replica at a time.
	Generation int `json:"generation,omitempty"`
	// SpoolTTLSec is the staged-upload garbage-collection horizon in
	// seconds (0 keeps the server default). The controller sweeps each
	// replica's spool on every reconcile pass.
	SpoolTTLSec int `json:"spoolTTLSec,omitempty"`
	// SnapshotEvery is the journal entries between automatic snapshots
	// (0 picks the controller default).
	SnapshotEvery int `json:"snapshotEvery,omitempty"`
	// Autoscale, when present, lets the controller move the replica count
	// with load instead of holding it at Replicas.
	Autoscale *AutoscaleSpec `json:"autoscale,omitempty"`
}

// AutoscaleSpec bounds and drives elastic replica pools.
type AutoscaleSpec struct {
	// Min and Max bound the live replica count.
	Min int `json:"min"`
	Max int `json:"max"`
	// BacklogPerReplica scales the pool up: while the Vsite's backlog
	// signal (in-flight consigns from the njs_consign_inflight gauge plus
	// queued batch jobs) exceeds this per healthy replica, each reconcile
	// adds one replica up to Max.
	BacklogPerReplica int `json:"backlogPerReplica"`
	// IdleCycles scales the pool down: after this many consecutive
	// reconciles with zero backlog, zero occupancy, and no event-log
	// growth, each further idle reconcile retires one replica down to Min.
	IdleCycles int `json:"idleCycles"`
}

// SpoolTTL returns the Vsite's staged-upload GC horizon (0 = server default).
func (v *TopologyVsite) SpoolTTL() time.Duration {
	return time.Duration(v.SpoolTTLSec) * time.Second
}

// DeclaredReplicas returns the declared resting replica count (minimum 1).
func (v *TopologyVsite) DeclaredReplicas() int {
	if v.Replicas < 1 {
		return 1
	}
	return v.Replicas
}

// decodeStrict decodes exactly one JSON document into v. Unknown fields are
// rejected so a typo ("replcas") cannot silently deploy something other than
// what the operator wrote, and a second document in the stream is a
// concatenation mistake, not a bigger deployment.
func decodeStrict(data []byte, what string, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("deploy: parsing %s: %w", what, err)
	}
	if dec.More() {
		return fmt.Errorf("deploy: parsing %s: trailing data after the document", what)
	}
	return nil
}

// ParseTopology decodes and validates a topology spec document.
func ParseTopology(data []byte) (*TopologySpec, error) {
	var spec TopologySpec
	if err := decodeStrict(data, "topology", &spec); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("deploy: topology: %w", err)
	}
	return &spec, nil
}

// ParseSite decodes and validates a site document (the contents of a
// site.json file) under the same rules as ParseTopology.
func ParseSite(data []byte) (*TopologySite, error) {
	var site TopologySite
	if err := decodeStrict(data, "site", &site); err != nil {
		return nil, err
	}
	if err := site.Validate(); err != nil {
		return nil, fmt.Errorf("deploy: site: %w", err)
	}
	return &site, nil
}

// LoadTopology reads and validates a topology spec file.
func LoadTopology(path string) (*TopologySpec, error) {
	return loadFile(path, ParseTopology)
}

// LoadSite reads and validates a site configuration file.
func LoadSite(path string) (*TopologySite, error) {
	return loadFile(path, ParseSite)
}

func loadFile[T any](path string, parse func([]byte) (*T, error)) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	doc, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return doc, nil
}

// Encode renders the spec as indented JSON. Encode∘ParseTopology is the
// identity on validated specs (the fuzz target holds the parser to it).
func (s *TopologySpec) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("deploy: encoding topology: %w", err)
	}
	return append(data, '\n'), nil
}

// Validate checks the spec for completeness and consistency.
func (s *TopologySpec) Validate() error {
	if s.Version != TopologyVersion {
		return fmt.Errorf("unsupported spec version %d (want %d)", s.Version, TopologyVersion)
	}
	if len(s.Sites) == 0 {
		return fmt.Errorf("no sites declared")
	}
	seenSites := map[core.Usite]bool{}
	for i := range s.Sites {
		site := &s.Sites[i]
		if err := site.Validate(); err != nil {
			return fmt.Errorf("site %d: %w", i, err)
		}
		if seenSites[site.Usite] {
			return fmt.Errorf("duplicate usite %q", site.Usite)
		}
		seenSites[site.Usite] = true
	}
	seenPeers := map[core.Usite]bool{}
	for i, p := range s.Peers {
		if p.Usite == "" {
			return fmt.Errorf("peer %d has no usite name", i)
		}
		if p.URL == "" {
			return fmt.Errorf("peer %s has no url", p.Usite)
		}
		if seenPeers[p.Usite] {
			return fmt.Errorf("duplicate peer %q", p.Usite)
		}
		seenPeers[p.Usite] = true
	}
	return nil
}

// Validate checks one site declaration — the only validator a site passes
// through, whether it was read from a site.json or from a topology spec.
func (site *TopologySite) Validate() error {
	if site.Usite == "" {
		return errors.New("empty usite name")
	}
	if len(site.Vsites) == 0 {
		return fmt.Errorf("usite %s has no vsites", site.Usite)
	}
	seen := map[core.Vsite]bool{}
	for j := range site.Vsites {
		v := &site.Vsites[j]
		if v.Name == "" {
			return fmt.Errorf("usite %s: vsite %d has no name", site.Usite, j)
		}
		if seen[v.Name] {
			return fmt.Errorf("usite %s: duplicate vsite %q", site.Usite, v.Name)
		}
		seen[v.Name] = true
		if err := v.validate(); err != nil {
			return fmt.Errorf("usite %s vsite %s: %w", site.Usite, v.Name, err)
		}
	}
	for _, u := range site.Users {
		if u.DN == "" {
			return fmt.Errorf("usite %s: user mapping without DN", site.Usite)
		}
		for vs := range u.Logins {
			if !seen[vs] {
				return fmt.Errorf("usite %s: user %s mapped at unknown vsite %q", site.Usite, u.DN, vs)
			}
		}
	}
	return nil
}

// validate checks one Vsite declaration's own fields.
func (v *TopologyVsite) validate() error {
	if _, err := Machine(v.Machine, v.Processors); err != nil {
		return err
	}
	if v.Replicas < 0 {
		return fmt.Errorf("negative replica count %d", v.Replicas)
	}
	if v.Processors < 0 {
		return fmt.Errorf("negative processor count %d", v.Processors)
	}
	if v.Generation < 0 {
		return fmt.Errorf("negative generation %d", v.Generation)
	}
	if v.SpoolTTLSec < 0 {
		return fmt.Errorf("negative spool TTL %d", v.SpoolTTLSec)
	}
	if v.SnapshotEvery < 0 {
		return fmt.Errorf("negative snapshot cadence %d", v.SnapshotEvery)
	}
	if _, err := pool.ParsePolicy(v.Policy); err != nil {
		return err
	}
	a := v.Autoscale
	if a == nil {
		return nil
	}
	if a.Min < 1 {
		return fmt.Errorf("autoscale min %d (want >= 1)", a.Min)
	}
	if a.Max < a.Min {
		return fmt.Errorf("autoscale max %d below min %d", a.Max, a.Min)
	}
	if a.BacklogPerReplica < 0 {
		return fmt.Errorf("negative autoscale backlog %d", a.BacklogPerReplica)
	}
	if a.IdleCycles < 0 {
		return fmt.Errorf("negative autoscale idle cycles %d", a.IdleCycles)
	}
	if r := v.DeclaredReplicas(); r < a.Min || r > a.Max {
		return fmt.Errorf("declared replicas %d outside autoscale bounds [%d,%d]", r, a.Min, a.Max)
	}
	return nil
}

// NJSConfig resolves a declared Vsite into the njs.VsiteConfig an NJS serving
// it runs (machine profile, queue set).
func (v *TopologyVsite) NJSConfig() (njs.VsiteConfig, error) {
	prof, err := Machine(v.Machine, v.Processors)
	if err != nil {
		return njs.VsiteConfig{}, err
	}
	var queues []codine.Queue
	for _, q := range v.Queues {
		mt := time.Duration(q.MaxTimeSec) * time.Second
		if mt == 0 {
			mt = 24 * time.Hour
		}
		queues = append(queues, codine.Queue{Name: q.Name, Slots: q.Slots, MaxTime: mt})
	}
	return njs.VsiteConfig{
		Name:     v.Name,
		Profile:  prof,
		Backfill: v.Backfill,
		Queues:   queues,
	}, nil
}

// Peer returns the declared peer entry for a Usite.
func (s *TopologySpec) Peer(u core.Usite) (*TopologyPeer, bool) {
	for i := range s.Peers {
		if s.Peers[i].Usite == u {
			return &s.Peers[i], true
		}
	}
	return nil, false
}

// Site returns the declared site for a Usite.
func (s *TopologySpec) Site(u core.Usite) (*TopologySite, bool) {
	for i := range s.Sites {
		if s.Sites[i].Usite == u {
			return &s.Sites[i], true
		}
	}
	return nil, false
}

// Vsite returns the declared Vsite of a site.
func (site *TopologySite) Vsite(v core.Vsite) (*TopologyVsite, bool) {
	for i := range site.Vsites {
		if site.Vsites[i].Name == v {
			return &site.Vsites[i], true
		}
	}
	return nil, false
}

// TopologyChange is one step of a topology diff.
type TopologyChange struct {
	// Op names the change: "add-site", "remove-site", "add-vsite",
	// "remove-vsite", "scale", "policy", "roll", "spool-ttl", "autoscale",
	// "machine", "add-peer", "remove-peer", "peer-url".
	Op    string
	Usite core.Usite
	Vsite core.Vsite
	// Detail is the human-readable delta ("replicas 2 -> 4").
	Detail string
}

// String renders the change for logs and unicore-ctl diff output.
func (c TopologyChange) String() string {
	target := string(c.Usite)
	if c.Vsite != "" {
		target += "/" + string(c.Vsite)
	}
	if c.Detail == "" {
		return fmt.Sprintf("%-12s %s", c.Op, target)
	}
	return fmt.Sprintf("%-12s %s: %s", c.Op, target, c.Detail)
}

// DiffTopology lists the steps that take the current spec to the desired
// one, in apply order: site/Vsite additions first, in-place changes next,
// removals last. Identical specs diff to nil.
func DiffTopology(current, desired *TopologySpec) []TopologyChange {
	var out []TopologyChange
	for i := range desired.Sites {
		want := &desired.Sites[i]
		have, ok := current.Site(want.Usite)
		if !ok {
			out = append(out, TopologyChange{Op: "add-site", Usite: want.Usite,
				Detail: fmt.Sprintf("%d vsite(s)", len(want.Vsites))})
			continue
		}
		out = append(out, diffSite(have, want)...)
	}
	for i := range desired.Peers {
		want := &desired.Peers[i]
		have, ok := current.Peer(want.Usite)
		switch {
		case !ok:
			out = append(out, TopologyChange{Op: "add-peer", Usite: want.Usite, Detail: want.URL})
		case have.URL != want.URL:
			out = append(out, TopologyChange{Op: "peer-url", Usite: want.Usite,
				Detail: fmt.Sprintf("%s -> %s", have.URL, want.URL)})
		}
	}
	for i := range current.Sites {
		if _, ok := desired.Site(current.Sites[i].Usite); !ok {
			out = append(out, TopologyChange{Op: "remove-site", Usite: current.Sites[i].Usite})
		}
	}
	for i := range current.Peers {
		if _, ok := desired.Peer(current.Peers[i].Usite); !ok {
			out = append(out, TopologyChange{Op: "remove-peer", Usite: current.Peers[i].Usite})
		}
	}
	return out
}

// diffSite lists per-Vsite changes between two declarations of one site.
func diffSite(have, want *TopologySite) []TopologyChange {
	var out []TopologyChange
	for i := range want.Vsites {
		wv := &want.Vsites[i]
		hv, ok := have.Vsite(wv.Name)
		if !ok {
			out = append(out, TopologyChange{Op: "add-vsite", Usite: want.Usite, Vsite: wv.Name,
				Detail: fmt.Sprintf("%s x%d", wv.Machine, wv.DeclaredReplicas())})
			continue
		}
		at := func(op, detail string) {
			out = append(out, TopologyChange{Op: op, Usite: want.Usite, Vsite: wv.Name, Detail: detail})
		}
		if hv.Machine != wv.Machine || hv.Processors != wv.Processors || hv.Backfill != wv.Backfill {
			at("machine", fmt.Sprintf("%s/%d -> %s/%d", hv.Machine, hv.Processors, wv.Machine, wv.Processors))
		}
		if hv.DeclaredReplicas() != wv.DeclaredReplicas() {
			at("scale", fmt.Sprintf("replicas %d -> %d", hv.DeclaredReplicas(), wv.DeclaredReplicas()))
		}
		if hv.Policy != wv.Policy {
			at("policy", fmt.Sprintf("%q -> %q", hv.Policy, wv.Policy))
		}
		if hv.Generation != wv.Generation {
			at("roll", fmt.Sprintf("generation %d -> %d", hv.Generation, wv.Generation))
		}
		if hv.SpoolTTLSec != wv.SpoolTTLSec {
			at("spool-ttl", fmt.Sprintf("%ds -> %ds", hv.SpoolTTLSec, wv.SpoolTTLSec))
		}
		if !autoscaleEqual(hv.Autoscale, wv.Autoscale) {
			at("autoscale", fmt.Sprintf("%s -> %s", autoscaleString(hv.Autoscale), autoscaleString(wv.Autoscale)))
		}
	}
	for i := range have.Vsites {
		if _, ok := want.Vsite(have.Vsites[i].Name); !ok {
			out = append(out, TopologyChange{Op: "remove-vsite", Usite: want.Usite, Vsite: have.Vsites[i].Name})
		}
	}
	return out
}

// autoscaleEqual compares two optional autoscale blocks.
func autoscaleEqual(a, b *AutoscaleSpec) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// autoscaleString renders an autoscale block for diff output.
func autoscaleString(a *AutoscaleSpec) string {
	if a == nil {
		return "off"
	}
	return fmt.Sprintf("[%d,%d] backlog %d idle %d", a.Min, a.Max, a.BacklogPerReplica, a.IdleCycles)
}
