package pool

import (
	"context"
	"errors"
	"testing"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/njs"
	"unicore/internal/protocol"
)

// jobService is the job-scoped part of njs.Service — what ReplicaSet and
// Router both get from jobCalls plus their own Events.
type jobService interface {
	Poll(core.DN, bool, core.JobID) (protocol.PollReply, error)
	Outcome(core.DN, bool, core.JobID) (*ajo.Outcome, bool, error)
	Control(core.DN, bool, core.JobID, ajo.ControlOp) error
	FetchFileOwned(core.DN, bool, core.JobID, string, int64, int64) (protocol.TransferReply, error)
	Events(core.DN, bool, protocol.SubscribeRequest) (protocol.EventsReply, error)
}

// jobOps is every job-scoped op in one shape: found reports whether the
// call answered for the job, whichever way the op says so.
var jobOps = []struct {
	name string
	call func(jobService, core.JobID) (found bool, err error)
}{
	{"Poll", func(s jobService, id core.JobID) (bool, error) {
		r, err := s.Poll("CN=u", false, id)
		return r.Found, err
	}},
	{"Outcome", func(s jobService, id core.JobID) (bool, error) {
		_, found, err := s.Outcome("CN=u", false, id)
		return found, err
	}},
	{"Control", func(s jobService, id core.JobID) (bool, error) {
		err := s.Control("CN=u", false, id, ajo.OpHold)
		if errors.Is(err, njs.ErrUnknownJob) {
			return false, nil
		}
		return err == nil, err
	}},
	// The peer-NJS Uspace read of §5.6 (the gateway's MsgTransfer): the
	// owner's read below, made as a server.
	{"FetchFile", func(s jobService, id core.JobID) (bool, error) {
		r, err := s.FetchFileOwned("", true, id, "f", 0, 0)
		return r.Found, err
	}},
	{"FetchFileOwned", func(s jobService, id core.JobID) (bool, error) {
		r, err := s.FetchFileOwned("CN=u", false, id, "f", 0, 0)
		return r.Found, err
	}},
	{"Events", func(s jobService, id core.JobID) (bool, error) {
		_, err := s.Events("CN=u", false, protocol.SubscribeRequest{Job: id})
		if errors.Is(err, njs.ErrUnknownJob) {
			return false, nil
		}
		return err == nil, err
	}},
}

// TestJobRoutingRulesHoldForEveryOp pins the two rules of the shared routing
// helpers for each job-scoped op, on both tiers: a cold pool (no affinity
// recorded — the pool restarted since admission) scatters to find the job and
// pins it to the replica that answered; and once pinned, an unhealthy owner
// is ErrReplicaDown — never "not found", and never a read from elsewhere.
func TestJobRoutingRulesHoldForEveryOp(t *testing.T) {
	for _, tier := range []string{"set", "router"} {
		for _, op := range jobOps {
			t.Run(tier+"/"+op.name, func(t *testing.T) {
				set, _, fakes := newTestSet(t, RoundRobin)
				var svc jobService = set
				if tier == "router" {
					other, _, _ := newTestSet(t, RoundRobin)
					other.cfg.Vsite = "OTHER"
					r, err := NewRouter("FZJ")
					if err != nil {
						t.Fatalf("NewRouter: %v", err)
					}
					for _, s := range []*ReplicaSet{other, set} {
						if err := r.AddSet(s); err != nil {
							t.Fatalf("AddSet: %v", err)
						}
					}
					svc = r
				}
				// Admit straight on one replica, behind the pool's back: the
				// pool holds no affinity for the job.
				id, err := fakes[1].Consign(context.Background(), "CN=u", "", testJob("CLUSTER"))
				if err != nil {
					t.Fatalf("Consign: %v", err)
				}
				if found, err := op.call(svc, "FZJ-none-000000"); found || err != nil {
					t.Fatalf("unknown job: found=%v err=%v, want a clean not-found", found, err)
				}
				if _, pinned := set.owner(id); pinned {
					t.Fatal("job pinned before any routed call")
				}
				if found, err := op.call(svc, id); !found || err != nil {
					t.Fatalf("cold pool: found=%v err=%v, want the scatter to find the job", found, err)
				}
				if rep, pinned := set.owner(id); !pinned || rep.name != "r1" {
					t.Fatalf("after the scatter the job is pinned to %v (pinned=%v), want r1", rep, pinned)
				}
				fakes[1].setDown(true)
				set.CheckNow()
				if found, err := op.call(svc, id); found || !errors.Is(err, ErrReplicaDown) {
					t.Fatalf("owner down: found=%v err=%v, want ErrReplicaDown", found, err)
				}
			})
		}
	}
}
