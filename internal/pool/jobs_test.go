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

// jobService is the job-scoped part of njs.Service, as the Router serves it.
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

// TestJobRoutingRulesHoldForEveryOp pins the one routing rule for each
// job-scoped op, behind a router fronting the job's set alone and one
// fronting two sets: the replica the job ID names answers. A job admitted
// behind the pool's back is found with no state to warm (a pool rebuilt
// since admission routes the same way); an ID that names no replica of the
// pool, or names one that never minted it, is a clean not-found; and an
// unhealthy named replica is ErrReplicaDown — never "not found", and never a
// read from elsewhere.
func TestJobRoutingRulesHoldForEveryOp(t *testing.T) {
	for _, topology := range []string{"set", "router"} {
		for _, op := range jobOps {
			t.Run(topology+"/"+op.name, func(t *testing.T) {
				set, _, fakes := newTestSet(t)
				svc := routerOver(t, set)
				if topology == "router" {
					other, _, _ := newTestSet(t)
					other.cfg.Vsite = "OTHER"
					svc = routerOver(t, other, set)
				}
				// Admit straight on one replica, behind the pool's back.
				id, err := fakes[1].Consign(context.Background(), "CN=u", "", testJob("CLUSTER"))
				if err != nil {
					t.Fatalf("Consign: %v", err)
				}
				for _, unknown := range []core.JobID{"FZJ-none-000000", "FZJ-000001", "FZJ-CLUSTER.r9-000001", "FZJ-CLUSTER.r1-000099", "ZIB-CLUSTER.r1-000001"} {
					if found, err := op.call(svc, unknown); found || err != nil {
						t.Fatalf("unknown job %s: found=%v err=%v, want a clean not-found", unknown, found, err)
					}
				}
				if found, err := op.call(svc, id); !found || err != nil {
					t.Fatalf("job %s: found=%v err=%v, want the replica it names to answer", id, found, err)
				}
				if n := fakes[0].pollN + fakes[2].pollN; n != 0 {
					t.Fatalf("%d polls reached replicas the job ID does not name", n)
				}
				fakes[1].setDown(true)
				set.CheckNow()
				if found, err := op.call(svc, id); found || !errors.Is(err, ErrReplicaDown) {
					t.Fatalf("named replica down: found=%v err=%v, want ErrReplicaDown", found, err)
				}
			})
		}
	}
}
