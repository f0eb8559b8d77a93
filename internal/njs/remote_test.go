package njs_test

// External-package tests for the NJS's distributed machinery (§5.5/§5.6):
// remote sub-job consignment through peer gateways, chunked NJS–NJS file
// transfers, peer failures, refusals, and lost contact. These live in
// njs_test so they can assemble full two-site rigs with the gateway package
// (which itself imports njs).

import (
	"context"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/gateway"
	"unicore/internal/machine"
	"unicore/internal/njs"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/sim"
	"unicore/internal/uudb"
)

// pair is a two-Usite rig ("A" and "B") wired over an in-process network.
type pair struct {
	clock *sim.VirtualClock
	ca    *pki.Authority
	net   *protocol.InProc
	reg   *protocol.Registry
	njsA  *njs.NJS
	njsB  *njs.NJS
	gwB   *gateway.Gateway
	alice *pki.Credential
}

func newPair(t *testing.T) *pair {
	t.Helper()
	clock := sim.NewVirtualClock()
	ca, err := pki.NewAuthority("PAIR-CA")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	alice, err := ca.IssueUser("Alice", "ORG")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	net := protocol.NewInProc()
	reg := protocol.NewRegistry()
	p := &pair{clock: clock, ca: ca, net: net, reg: reg, alice: alice}

	mk := func(usite core.Usite, host string) (*njs.NJS, *gateway.Gateway) {
		cred, err := ca.IssueServer("gw."+string(usite), host)
		if err != nil {
			t.Fatalf("IssueServer: %v", err)
		}
		users := uudb.New()
		users.AddUser(alice.DN(), "")
		if err := users.AddMapping(alice.DN(), "T3E", uudb.Login{UID: "alice"}); err != nil {
			t.Fatalf("AddMapping: %v", err)
		}
		n, err := njs.New(njs.Config{
			Usite:  usite,
			Clock:  clock,
			Vsites: []njs.VsiteConfig{{Name: "T3E", Profile: machine.CrayT3E(64)}},
		})
		if err != nil {
			t.Fatalf("njs.New: %v", err)
		}
		gw, err := gateway.New(gateway.Config{Usite: usite, Cred: cred, CA: ca, Users: users, Backend: n})
		if err != nil {
			t.Fatalf("gateway.New: %v", err)
		}
		n.SetPeers(protocol.NewClient(net, cred, ca, reg))
		net.Register(host, gw)
		reg.Add(usite, "https://"+host)
		return n, gw
	}
	p.njsA, _ = mk("A", "gw.a")
	p.njsB, p.gwB = mk("B", "gw.b")
	return p
}

// parentWithRemote builds a parent job at A whose sub-job runs at B and
// hands back `file` of `size` bytes.
func parentWithRemote(file string, size int) *ajo.AbstractJob {
	sub := &ajo.AbstractJob{
		Header: ajo.Header{ActionID: "sub", ActionName: "remote part"},
		Target: core.Target{Usite: "B", Vsite: "T3E"},
		Actions: ajo.ActionList{&ajo.ScriptTask{
			TaskBase: ajo.TaskBase{
				Header:    ajo.Header{ActionID: "produce", ActionName: "produce"},
				Resources: resources.Request{Processors: 1, RunTime: time.Hour},
			},
			Script: "write " + file + " " + itoa(size) + "\n",
		}},
	}
	return &ajo.AbstractJob{
		Header: ajo.Header{ActionID: ajo.NewID("parent"), ActionName: "distributed"},
		Target: core.Target{Usite: "A", Vsite: "T3E"},
		Actions: ajo.ActionList{
			sub,
			&ajo.TransferTask{
				Header:     ajo.Header{ActionID: "pull", ActionName: "pull"},
				FromAction: "sub",
				Files:      []string{file},
			},
		},
		Dependencies: []ajo.Dependency{{Before: "sub", After: "pull"}},
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestRemoteSubJobChunkedTransfer(t *testing.T) {
	p := newPair(t)
	// 600 KiB forces three 256 KiB transfer chunks through the peer gateway.
	const size = 600 << 10
	id, err := p.njsA.Consign(context.Background(), p.alice.DN(), "", parentWithRemote("big.dat", size))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	p.clock.RunUntilIdle(1_000_000)
	o, found, err := p.njsA.Outcome(p.alice.DN(), false, id)
	if err != nil || !found {
		t.Fatalf("Outcome: %v found=%v", err, found)
	}
	if o.Status != ajo.StatusSuccessful {
		t.Fatalf("status = %s\n%s", o.Status, o.Render())
	}
	// The transferred file landed in the parent's Uspace, intact.
	vs, _ := p.njsA.Vsite("T3E")
	data, err := vs.Space.ReadJobFile(id, "big.dat")
	if err != nil {
		t.Fatalf("ReadJobFile: %v", err)
	}
	if len(data) != size {
		t.Fatalf("transferred %d bytes, want %d", len(data), size)
	}
	// The remote side accounted for exactly one batch job.
	vsB, _ := p.njsB.Vsite("T3E")
	if recs := vsB.RMS.Accounting(); len(recs) != 1 {
		t.Fatalf("B accounting = %d records, want 1", len(recs))
	}
}

func TestRemoteSubJobPeerUnreachable(t *testing.T) {
	p := newPair(t)
	// Point B's registry entry at a host nobody serves.
	p.reg.Add("B", "https://gw.nowhere")
	id, err := p.njsA.Consign(context.Background(), p.alice.DN(), "", parentWithRemote("x.dat", 16))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	p.clock.RunUntilIdle(1_000_000)
	o, _, _ := p.njsA.Outcome(p.alice.DN(), false, id)
	if o.Status != ajo.StatusFailed {
		t.Fatalf("status = %s, want FAILED", o.Status)
	}
	sub, _ := o.Find("sub")
	if !strings.Contains(sub.Reason, "consigning to B") {
		t.Fatalf("reason = %q", sub.Reason)
	}
	pull, _ := o.Find("pull")
	if pull.Status != ajo.StatusNotDone {
		t.Fatalf("dependent transfer = %s, want NOT_DONE", pull.Status)
	}
}

func TestRemoteSubJobPeerRefuses(t *testing.T) {
	p := newPair(t)
	job := parentWithRemote("x.dat", 16)
	// Address a Vsite B does not have: B's NJS refuses the consignment.
	job.Actions[0].(*ajo.AbstractJob).Target.Vsite = "SX4"
	id, err := p.njsA.Consign(context.Background(), p.alice.DN(), "", job)
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	p.clock.RunUntilIdle(1_000_000)
	o, _, _ := p.njsA.Outcome(p.alice.DN(), false, id)
	sub, _ := o.Find("sub")
	if sub.Status != ajo.StatusFailed || !strings.Contains(sub.Reason, "refused") {
		t.Fatalf("sub = %s (%q), want refusal", sub.Status, sub.Reason)
	}
}

// failAfterConsign answers the first request (the consignment) and then
// drops the peer connection under every later poll, and takes no new one.
type failAfterConsign struct {
	inner   *gateway.Gateway
	faults  protocol.ConnFaults
	replies atomic.Int32
}

func (f *failAfterConsign) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "site unreachable", http.StatusBadGateway)
}

func (f *failAfterConsign) ServeStream(ctx context.Context, conn net.Conn) {
	if f.replies.Load() > 0 {
		conn.Close()
		return
	}
	f.faults.Decide = func() protocol.Fault {
		if f.replies.Add(1) > 1 {
			return protocol.LoseFrame
		}
		return protocol.NoFault
	}
	f.inner.ServeStream(ctx, f.faults.Wrap(conn))
}

func TestRemoteSubJobLostContact(t *testing.T) {
	p := newPair(t)
	p.net.Register("gw.b", &failAfterConsign{inner: p.gwB})
	id, err := p.njsA.Consign(context.Background(), p.alice.DN(), "", parentWithRemote("x.dat", 16))
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	// The poll loop retries every 2 virtual seconds and gives up after its
	// failure budget; drive well past it.
	p.clock.RunUntilIdle(5_000_000)
	o, _, _ := p.njsA.Outcome(p.alice.DN(), false, id)
	if o.Status != ajo.StatusFailed {
		t.Fatalf("status = %s, want FAILED after losing the peer", o.Status)
	}
	sub, _ := o.Find("sub")
	if !strings.Contains(sub.Reason, "lost contact with B") {
		t.Fatalf("reason = %q", sub.Reason)
	}
}

func TestAbortReachesRemoteSubJob(t *testing.T) {
	p := newPair(t)
	job := parentWithRemote("x.dat", 16)
	// Make the remote part long so it is still running when we abort.
	job.Actions[0].(*ajo.AbstractJob).Actions[0].(*ajo.ScriptTask).Script = "cpu 5h\nwrite x.dat 16\n"
	id, err := p.njsA.Consign(context.Background(), p.alice.DN(), "", job)
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	// Let the consignment land and the remote job start.
	p.clock.Advance(5 * time.Second)
	if err := p.njsA.Control(p.alice.DN(), false, id, ajo.OpAbort); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	p.clock.RunUntilIdle(1_000_000)

	o, _, _ := p.njsA.Outcome(p.alice.DN(), false, id)
	if o.Status != ajo.StatusAborted {
		t.Fatalf("parent status = %s, want ABORTED", o.Status)
	}
	// The peer's job must be terminal too — the abort crossed the sites.
	list, err := p.njsB.List(p.alice.DN())
	if err != nil {
		t.Fatalf("List at B: %v", err)
	}
	if len(list) != 1 {
		t.Fatalf("B has %d jobs, want 1", len(list))
	}
	if !list[0].Status.Terminal() {
		t.Fatalf("remote job still %s after cross-site abort", list[0].Status)
	}
}

func TestRemoteDependencyFileInjection(t *testing.T) {
	p := newPair(t)
	// Parent produces a file at A, hands it to a sub-job at B via the §5.7
	// dependency-file guarantee; the sub-job consumes it.
	job := &ajo.AbstractJob{
		Header: ajo.Header{ActionID: ajo.NewID("handover"), ActionName: "handover"},
		Target: core.Target{Usite: "A", Vsite: "T3E"},
		Actions: ajo.ActionList{
			&ajo.ScriptTask{
				TaskBase: ajo.TaskBase{
					Header:    ajo.Header{ActionID: "make", ActionName: "make"},
					Resources: resources.Request{Processors: 1, RunTime: time.Hour},
				},
				Script: "write handoff.dat 2048\n",
			},
			&ajo.AbstractJob{
				Header: ajo.Header{ActionID: "remote", ActionName: "remote consumer"},
				Target: core.Target{Usite: "B", Vsite: "T3E"},
				Actions: ajo.ActionList{&ajo.ScriptTask{
					TaskBase: ajo.TaskBase{
						Header:    ajo.Header{ActionID: "use", ActionName: "use"},
						Resources: resources.Request{Processors: 1, RunTime: time.Hour},
					},
					Script: "cat handoff.dat > consumed.tmp\necho used\n",
				}},
			},
		},
		Dependencies: []ajo.Dependency{{Before: "make", After: "remote", Files: []string{"handoff.dat"}}},
	}
	id, err := p.njsA.Consign(context.Background(), p.alice.DN(), "", job)
	if err != nil {
		t.Fatalf("Consign: %v", err)
	}
	p.clock.RunUntilIdle(1_000_000)
	o, _, _ := p.njsA.Outcome(p.alice.DN(), false, id)
	if o.Status != ajo.StatusSuccessful {
		t.Fatalf("status = %s\n%s", o.Status, o.Render())
	}
	// The staged import must appear inside the remote group's outcome.
	remote, ok := o.Find("remote")
	if !ok {
		t.Fatal("no outcome for the remote group")
	}
	staged := false
	for _, c := range remote.Children {
		if strings.Contains(c.Name, "handoff.dat") {
			staged = true
		}
	}
	if !staged {
		t.Fatalf("no staged dependency import in remote outcome:\n%s", remote.Render())
	}
}
