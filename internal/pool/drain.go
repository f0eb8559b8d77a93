package pool

// Drain-before-kill and dynamic membership. Rolling replacement of a live
// replica runs in three pool-visible phases: Drain stops routing NEW work
// (consigns, staged-upload opens) to the replica while everything it owns —
// running jobs, held uploads, event cursors — stays reachable by name; the
// caller waits for DrainStatus to settle (no routed admission or staging
// call in flight); then either SetService swaps in a journal-recovered
// replacement under the same name (which its IDs keep naming, and the
// reconcile pass re-homes its ack-index entries) or Remove retires the name
// for good. Add grows a live set the same way the controller populates a
// new one.

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseReplicaTag inverts ReplicaTag: "r3" → 3. It reports false for names
// outside the conventional namespace (deployments may pool replicas under
// arbitrary names).
func ParseReplicaTag(tag string) (int, bool) {
	rest, ok := strings.CutPrefix(tag, "r")
	if !ok || rest == "" {
		return 0, false
	}
	i, err := strconv.Atoi(rest)
	if err != nil || i < 0 {
		return 0, false
	}
	return i, true
}

// DrainStatus is the settling state of one (possibly draining) replica.
type DrainStatus struct {
	// Draining reports whether new-work routing currently excludes the
	// replica.
	Draining bool
	// Inflight is how many routed admission/staging calls are executing on
	// the replica right now; a drain has settled when this is zero.
	Inflight int
	// Uploads is how many staged-upload handles the replica's spool holds
	// (0 when the service is no StageReporter). They survive replacement —
	// a journal-recovered service rescans its spool, and the handles keep
	// naming the replica.
	Uploads int
}

// Drain excludes a replica from new-work routing. Idempotent; the replica
// keeps serving job- and handle-scoped calls for everything it owns.
func (s *ReplicaSet) Drain(name string) error {
	s.mu.RLock()
	r, ok := s.byName[name]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownReplica, name)
	}
	if !r.draining.Swap(true) {
		s.tel.Counter("pool_drain_total", "replica", name).Inc()
	}
	return nil
}

// Undrain returns a drained replica to new-work routing.
func (s *ReplicaSet) Undrain(name string) error {
	s.mu.RLock()
	r, ok := s.byName[name]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownReplica, name)
	}
	r.draining.Store(false)
	return nil
}

// DrainStatus reports how far a replica's drain has settled.
func (s *ReplicaSet) DrainStatus(name string) (DrainStatus, error) {
	s.mu.RLock()
	r, ok := s.byName[name]
	s.mu.RUnlock()
	if !ok {
		return DrainStatus{}, fmt.Errorf("%w: %q", ErrUnknownReplica, name)
	}
	st := DrainStatus{
		Draining: r.draining.Load(),
		Inflight: int(r.calls.Load()),
	}
	if rep, ok := r.service().(StageReporter); ok {
		st.Uploads = len(rep.StagedHandles())
	}
	return st, nil
}

// Remove retires a replica from the set for good: new work stops walking to
// it, and job- and handle-scoped calls naming it are not-found from then
// on. Acknowledged consign IDs stay in the ack index — a client retry of an admission the
// retired replica acked still converges on the recorded job ID instead of
// duplicating the job. The caller owns the retired service (Kill it, close
// its journal); scale down only after the replica's drain has settled.
func (s *ReplicaSet) Remove(name string) error {
	s.mu.Lock()
	r, ok := s.byName[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownReplica, name)
	}
	delete(s.byName, name)
	for i, rep := range s.replicas {
		if rep == r {
			s.replicas = append(s.replicas[:i], s.replicas[i+1:]...)
			break
		}
	}
	for dn, rep := range s.lastOpen {
		if rep == r {
			delete(s.lastOpen, dn)
		}
	}
	s.mu.Unlock()
	s.tel.Counter("pool_remove_total", "replica", name).Inc()
	return nil
}
