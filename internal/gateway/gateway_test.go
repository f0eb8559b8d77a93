package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/machine"
	"unicore/internal/njs"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/sim"
	"unicore/internal/telemetry"
	"unicore/internal/uudb"
)

// site bundles one in-process Usite for gateway tests.
type site struct {
	clock *sim.VirtualClock
	ca    *pki.Authority
	gw    *Gateway
	njs   *njs.NJS
	users *uudb.DB
	net   *protocol.InProc
	reg   *protocol.Registry
	alice *pki.Credential
}

func newSite(t *testing.T, opts ...func(*Config)) *site {
	t.Helper()
	clock := sim.NewVirtualClock()
	ca, err := pki.NewAuthority("DFN-PCA")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	srvCred, err := ca.IssueServer("gateway.fzj", "gw.fzj")
	if err != nil {
		t.Fatalf("IssueServer: %v", err)
	}
	alice, err := ca.IssueUser("Alice Ahlmann", "FZJ")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	users := uudb.New()
	users.AddUser(alice.DN(), "alice@fzj.de")
	if err := users.AddMapping(alice.DN(), "T3E", uudb.Login{UID: "aahlm", Groups: []string{"zam"}}); err != nil {
		t.Fatalf("AddMapping: %v", err)
	}
	n, err := njs.New(njs.Config{
		Usite:  "FZJ",
		Clock:  clock,
		Vsites: []njs.VsiteConfig{{Name: "T3E", Profile: machine.CrayT3E(64)}},
		Logins: users.Map,
	})
	if err != nil {
		t.Fatalf("njs.New: %v", err)
	}
	cfg := Config{Usite: "FZJ", Cred: srvCred, CA: ca, Backend: n}
	for _, o := range opts {
		o(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	inproc := protocol.NewInProc()
	inproc.Register("gw.fzj", gw)
	reg := protocol.NewRegistry()
	reg.Add("FZJ", "https://gw.fzj")
	return &site{clock: clock, ca: ca, gw: gw, njs: n, users: users, net: inproc, reg: reg, alice: alice}
}

func (s *site) client(cred *pki.Credential) *protocol.Client {
	return protocol.NewClient(s.net, cred, s.ca, s.reg)
}

// gauge reads one series of the site gateway's registry.
func (s *site) gauge(name string, kv ...string) float64 {
	return series(s.gw.Telemetry().Snapshot(), name, kv...)
}

// series reads the value of the metric named name whose labels are exactly
// the key/value pairs kv; 0 when there is none.
func series(snap telemetry.Snapshot, name string, kv ...string) float64 {
	for _, p := range snap.Metrics {
		if p.Name != name || len(p.Labels) != len(kv)/2 {
			continue
		}
		match := true
		for i := 0; i+1 < len(kv); i += 2 {
			match = match && p.Labels[kv[i]] == kv[i+1]
		}
		if match {
			return p.Value
		}
	}
	return 0
}

// door is either way of calling a gateway, by request type: the frameDoor,
// whose every op rides the frame stream, or the envelopeDoor.
type door interface {
	call(ctx context.Context, usite core.Usite, t protocol.MsgType, payload, replyOut any) error
}

// frameDoor is a protocol.Client as a door: the request runs through
// protocol.Do on the op the gateway row of its type rides.
type frameDoor struct{ *protocol.Client }

func (d frameDoor) call(ctx context.Context, usite core.Usite, t protocol.MsgType, payload, replyOut any) error {
	return ops[t].(prober).frame(ctx, d.Client, usite, payload, replyOut)
}

// envelopeDoor drives the gateways' signed-envelope door the way a POSTing
// client did, for the tests that compare the two server doors: call seals the
// request under cred, hands it to HandleContext and opens the reply — which
// must be server-signed and of the op's reply type; a sealed error comes back
// as a *protocol.ErrorReply.
type envelopeDoor struct {
	gw   map[core.Usite]*Gateway
	cred *pki.Credential
	ca   *pki.Authority
}

func (s *site) envelopes(cred *pki.Credential) envelopeDoor {
	return envelopeDoor{gw: map[core.Usite]*Gateway{"FZJ": s.gw}, cred: cred, ca: s.ca}
}

func (d envelopeDoor) call(ctx context.Context, usite core.Usite, t protocol.MsgType, payload, replyOut any) error {
	env, err := protocol.SealTraced(d.cred, telemetry.TraceFrom(ctx), t, payload)
	if err != nil {
		return err
	}
	return openEnvelopeReply(d.ca, t, d.gw[usite].HandleContext(ctx, env), replyOut)
}

// openEnvelopeReply opens the sealed reply to a request of type t.
func openEnvelopeReply(ca *pki.Authority, t protocol.MsgType, reply []byte, replyOut any) error {
	rt, raw, _, role, err := protocol.Open(ca, reply)
	switch want, _ := protocol.ReplyType(t); {
	case err != nil:
		return err
	case role != pki.RoleServer:
		return fmt.Errorf("reply signed by a %s certificate", role)
	case rt == protocol.MsgError:
		var er protocol.ErrorReply
		if err := json.Unmarshal(raw, &er); err != nil {
			return err
		}
		return &er
	case rt != want:
		return fmt.Errorf("%s answered with a %s, want %s", t, rt, want)
	case replyOut == nil:
		return nil
	}
	return json.Unmarshal(raw, replyOut)
}

// scriptJob builds a one-task script job for the test Vsite.
func scriptJob(name, script string) *ajo.AbstractJob {
	return &ajo.AbstractJob{
		Header: ajo.Header{ActionID: ajo.NewID("job"), ActionName: name},
		Target: core.Target{Usite: "FZJ", Vsite: "T3E"},
		Actions: ajo.ActionList{
			&ajo.ScriptTask{
				TaskBase: ajo.TaskBase{
					Header:    ajo.Header{ActionID: "s1", ActionName: "script"},
					Resources: resources.Request{Processors: 1, RunTime: time.Minute},
				},
				Script: script,
			},
		},
	}
}

func consign(t *testing.T, c *protocol.Client, job *ajo.AbstractJob) core.JobID {
	t.Helper()
	raw, err := ajo.Marshal(job)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var reply protocol.ConsignReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpConsign, protocol.ConsignRequest{ConsignID: string(job.ID()), AJO: raw}, &reply); err != nil {
		t.Fatalf("consign: %v", err)
	}
	if !reply.Accepted {
		t.Fatalf("consign refused: %s", reply.Reason)
	}
	return reply.Job
}

func TestEndToEndScriptJob(t *testing.T) {
	s := newSite(t)
	c := s.client(s.alice)
	id := consign(t, c, scriptJob("hello", "echo hello unicore\n"))
	s.clock.RunUntilIdle(100000)

	var poll protocol.PollReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpPoll, protocol.PollRequest{Job: id}, &poll); err != nil {
		t.Fatalf("poll: %v", err)
	}
	if !poll.Found || poll.Summary.Status != ajo.StatusSuccessful {
		t.Fatalf("job = %+v, want successful", poll.Summary)
	}

	var oreply protocol.OutcomeReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpOutcome, protocol.OutcomeRequest{Job: id}, &oreply); err != nil {
		t.Fatalf("outcome: %v", err)
	}
	if !oreply.Found {
		t.Fatal("outcome not found")
	}
	task, ok := oreply.Outcome.Find("s1")
	if !ok {
		t.Fatal("no outcome for task s1")
	}
	if got := string(task.Stdout); !strings.Contains(got, "hello unicore") {
		t.Fatalf("stdout = %q, want it to contain %q", got, "hello unicore")
	}
}

func TestListAndControl(t *testing.T) {
	s := newSite(t)
	c := s.client(s.alice)
	// A job that would run for a while: hold it immediately.
	id := consign(t, c, scriptJob("long", "cpu 30m\n"))

	var list protocol.ListReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpList, protocol.ListRequest{}, &list); err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].Job != id {
		t.Fatalf("list = %+v, want the one consigned job", list.Jobs)
	}

	var ctl protocol.ControlReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpControl, protocol.ControlRequest{Job: id, Op: ajo.OpAbort}, &ctl); err != nil {
		t.Fatalf("control: %v", err)
	}
	if !ctl.OK {
		t.Fatalf("abort refused: %s", ctl.Reason)
	}
	s.clock.RunUntilIdle(100000)
	var poll protocol.PollReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpPoll, protocol.PollRequest{Job: id}, &poll); err != nil {
		t.Fatalf("poll: %v", err)
	}
	if poll.Summary.Status != ajo.StatusAborted {
		t.Fatalf("status = %s, want ABORTED", poll.Summary.Status)
	}
}

func TestUnmappedUserIsRefused(t *testing.T) {
	s := newSite(t)
	mallory, err := s.ca.IssueUser("Mallory", "Nowhere")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	c := s.client(mallory)
	raw, _ := ajo.Marshal(scriptJob("x", "echo x\n"))
	var reply protocol.ConsignReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpConsign, protocol.ConsignRequest{AJO: raw}, &reply); err != nil {
		t.Fatalf("call: %v", err)
	}
	if reply.Accepted {
		t.Fatal("consign accepted for a user with no UUDB mapping")
	}
	if !strings.Contains(reply.Reason, "mapping") {
		t.Fatalf("reason = %q, want a mapping failure", reply.Reason)
	}
}

func TestRevokedCertificateIsRejected(t *testing.T) {
	s := newSite(t)
	s.ca.Revoke(s.alice.Cert)
	c := s.client(s.alice)
	err := protocol.Do(context.Background(), c, "FZJ", protocol.OpList, protocol.ListRequest{}, &protocol.ListReply{})
	if err == nil {
		t.Fatal("revoked certificate was accepted")
	}
	var er *protocol.ErrorReply
	if !strings.Contains(err.Error(), "revoked") {
		t.Fatalf("err = %v (%T, errAs=%v), want revocation failure", err, err, er)
	}
}

// TestRevocationReachesAnOpenStream: a stream is authenticated once, at its
// hello, so a revocation must reach the streams already open. Alice's stream,
// opened before her certificate is revoked, has its next frame refused and is
// closed; Bob's stream is still served; Alice's next stream is refused at its
// hello.
func TestRevocationReachesAnOpenStream(t *testing.T) {
	s := newSite(t)
	bob, err := s.ca.IssueUser("Bob Bauer", "FZJ")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	s.users.AddUser(bob.DN(), "bob@fzj.de")
	if err := s.users.AddMapping(bob.DN(), "T3E", uudb.Login{UID: "bbaue", Groups: []string{"zam"}}); err != nil {
		t.Fatalf("AddMapping: %v", err)
	}
	ctx := context.Background()
	list := func(c *protocol.Client) error {
		return protocol.Do(ctx, c, "FZJ", protocol.OpList, protocol.ListRequest{}, &protocol.ListReply{})
	}
	alice, bobs := s.client(s.alice), s.client(bob)
	defer alice.Close()
	defer bobs.Close()
	for _, c := range []*protocol.Client{alice, bobs} {
		if err := list(c); err != nil {
			t.Fatalf("list before revocation: %v", err)
		}
	}
	if v := s.gauge("pki_verify_total"); v != 2 {
		t.Fatalf("pki_verify_total = %v after two streams' hellos, want 2", v)
	}

	s.ca.Revoke(s.alice.Cert)
	err = list(alice)
	var refused *protocol.ErrorReply
	if !errors.As(err, &refused) || !strings.Contains(refused.Message, "revoked") {
		t.Fatalf("alice's open stream after revocation: err = %v, want a revocation refusal", err)
	}
	if v := s.gauge("pki_verify_total"); v != 2 {
		t.Fatalf("pki_verify_total = %v: the refusal came from a new hello, not alice's open stream", v)
	}
	for deadline := time.Now().Add(5 * time.Second); s.gauge("gateway_stream_conns") != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("gateway_stream_conns = %v, want 1: alice's refused stream stayed open", s.gauge("gateway_stream_conns"))
		}
		time.Sleep(time.Millisecond)
	}
	if err := list(bobs); err != nil {
		t.Fatalf("bob's stream after alice's revocation: %v", err)
	}
	if err := list(alice); err == nil || !strings.Contains(err.Error(), "revoked") {
		t.Fatalf("alice's fresh stream after revocation: err = %v, want a revocation refusal", err)
	}
	if v := s.gauge("pki_verify_total"); v != 3 {
		t.Fatalf("pki_verify_total = %v, want 3: alice's refused hello is the one new verify", v)
	}
}

// TestRevocationEndsAnOpenPush: a push subscription needs no inbound frame
// to learn of a revocation. Alice's job runs on after her certificate is
// revoked; its next batch is refused instead of pushed, the subscription
// ends, and the stream closes.
func TestRevocationEndsAnOpenPush(t *testing.T) {
	s := newSite(t)
	c := s.client(s.alice)
	defer c.Close()
	events, stop, err := c.SubscribeStream(context.Background(), "FZJ", protocol.SubscribeRequest{WaitMs: 60_000})
	if err != nil {
		t.Fatalf("SubscribeStream: %v", err)
	}
	defer stop()
	consign(t, c, scriptJob("before", "echo hi\n"))
	for queued := false; !queued; {
		b, ok := <-events
		if !ok {
			t.Fatal("subscription ended before revocation")
		}
		for _, e := range b.Events {
			queued = queued || e.Status == ajo.StatusQueued
		}
	}

	s.ca.Revoke(s.alice.Cert)
	s.clock.RunUntilIdle(100000) // the job's later events
	timeout := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case b, ok := <-events:
			if ok && len(b.Events) > 0 {
				t.Fatalf("pushed after revocation: %+v", b.Events)
			}
			open = ok
		case <-timeout:
			t.Fatal("the revoked subscription is still open")
		}
	}
	for deadline := time.Now().Add(5 * time.Second); s.gauge("gateway_stream_conns") != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("gateway_stream_conns = %v, want 0: the revoked stream stayed open", s.gauge("gateway_stream_conns"))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSiteAuthHook(t *testing.T) {
	denied := core.DN("")
	s := newSite(t, func(c *Config) {
		c.SiteAuth = func(dn core.DN) error {
			if dn == denied {
				return nil
			}
			if strings.Contains(string(dn), "Alice") {
				return nil
			}
			return protocol.ErrorReply{Code: "dce", Message: "no DCE ticket"}
		}
	})
	bob, err := s.ca.IssueUser("Bob", "RUS")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	if err := c0(t, s, s.alice); err != nil {
		t.Fatalf("alice should pass site auth: %v", err)
	}
	if err := c0(t, s, bob); err == nil {
		t.Fatal("bob should fail site auth")
	}
}

func c0(t *testing.T, s *site, cred *pki.Credential) error {
	t.Helper()
	return protocol.Do(context.Background(), s.client(cred), "FZJ", protocol.OpList, protocol.ListRequest{}, &protocol.ListReply{})
}

func TestTransferRequiresServerRole(t *testing.T) {
	s := newSite(t)
	c := s.client(s.alice)
	err := protocol.Do(context.Background(), c, "FZJ", protocol.OpTransfer, protocol.TransferRequest{Job: "FZJ-000001", File: "x"}, &protocol.TransferReply{})
	if err == nil {
		t.Fatal("user-role transfer request was accepted")
	}
	if !strings.Contains(err.Error(), "NJS-to-NJS") {
		t.Fatalf("err = %v, want role refusal", err)
	}
}

func TestOtherUsersJobsAreInvisible(t *testing.T) {
	s := newSite(t)
	id := consign(t, s.client(s.alice), scriptJob("private", "echo secret\n"))
	s.clock.RunUntilIdle(100000)

	bob, err := s.ca.IssueUser("Bob", "RUS")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	cb := s.client(bob)
	err = protocol.Do(context.Background(), cb, "FZJ", protocol.OpOutcome, protocol.OutcomeRequest{Job: id}, &protocol.OutcomeReply{})
	if err == nil {
		t.Fatal("bob could read alice's outcome")
	}
	var list protocol.ListReply
	if err := protocol.Do(context.Background(), cb, "FZJ", protocol.OpList, protocol.ListRequest{}, &list); err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("bob sees %d jobs, want 0", len(list.Jobs))
	}
}

func TestResourcePages(t *testing.T) {
	s := newSite(t)
	c := s.client(s.alice)
	var reply protocol.ResourcesReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpResources, protocol.ResourcesRequest{}, &reply); err != nil {
		t.Fatalf("resources: %v", err)
	}
	if len(reply.PagesDER) != 1 {
		t.Fatalf("got %d pages, want 1", len(reply.PagesDER))
	}
	page, err := resources.UnmarshalASN1(reply.PagesDER[0])
	if err != nil {
		t.Fatalf("UnmarshalASN1: %v", err)
	}
	if page.Target != (core.Target{Usite: "FZJ", Vsite: "T3E"}) {
		t.Fatalf("page target = %s", page.Target)
	}
	if page.Architecture != "Cray T3E" {
		t.Fatalf("architecture = %q", page.Architecture)
	}

	// Asking for a non-existent Vsite is an error.
	err = protocol.Do(context.Background(), c, "FZJ", protocol.OpResources, protocol.ResourcesRequest{Vsite: "SX4"}, &reply)
	if err == nil {
		t.Fatal("resources for unknown Vsite succeeded")
	}
}

func TestSignedApplets(t *testing.T) {
	s := newSite(t)
	software, err := s.ca.IssueSoftware("UNICORE Consortium")
	if err != nil {
		t.Fatalf("IssueSoftware: %v", err)
	}
	payload := []byte("JPA bytecode v1.2")
	applet, err := SignApplet(software, "jpa", "1.2", payload)
	if err != nil {
		t.Fatalf("SignApplet: %v", err)
	}
	if err := s.gw.InstallApplet(applet); err != nil {
		t.Fatalf("InstallApplet: %v", err)
	}

	c := s.client(s.alice)
	var reply protocol.AppletReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpApplet, protocol.AppletRequest{Name: "jpa"}, &reply); err != nil {
		t.Fatalf("applet fetch: %v", err)
	}
	// The user-side verification: the applet certificate is checked so the
	// user knows the software has not been tampered with (§4.1).
	dn, err := s.ca.VerifySignature(reply.Payload, reply.Signature, pki.RoleSoftware)
	if err != nil {
		t.Fatalf("verify applet: %v", err)
	}
	if dn != software.DN() {
		t.Fatalf("applet signer = %s", dn)
	}

	// Tampered payloads are refused at install time...
	bad := applet
	bad.Payload = []byte("JPA bytecode v1.2 + trojan")
	if err := s.gw.InstallApplet(bad); err == nil {
		t.Fatal("tampered applet installed")
	}
	// ...and detected client-side if served anyway.
	if _, err := s.ca.VerifySignature(bad.Payload, bad.Signature, pki.RoleSoftware); err == nil {
		t.Fatal("tampered applet verified")
	}

	// A user-signed applet must not install: wrong role.
	if _, err := SignApplet(s.alice, "jmc", "1.0", payload); err == nil {
		t.Fatal("user credential signed an applet")
	}
}

func TestLoadQuery(t *testing.T) {
	s := newSite(t)
	c := s.client(s.alice)
	var before protocol.LoadReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpLoad, protocol.LoadRequest{}, &before); err != nil {
		t.Fatalf("load: %v", err)
	}
	if before.Overall != 0 {
		t.Fatalf("idle load = %v, want 0", before.Overall)
	}
	// Saturate the Vsite and ask again. 64 PEs; each job takes 32.
	for i := 0; i < 4; i++ {
		job := scriptJob("fill", "cpu 30m\n")
		job.Actions[0].(*ajo.ScriptTask).Resources.Processors = 32
		job.Header.ActionID = ajo.NewID("fill")
		consign(t, c, job)
	}
	s.clock.Advance(time.Second)
	var after protocol.LoadReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpLoad, protocol.LoadRequest{}, &after); err != nil {
		t.Fatalf("load: %v", err)
	}
	if after.Overall != 1 {
		t.Fatalf("saturated load = %v, want 1", after.Overall)
	}
	vl, ok := after.Vsites["T3E"]
	if !ok {
		t.Fatalf("no per-vsite load: %+v", after.Vsites)
	}
	if vl.Pending != 2 {
		t.Fatalf("pending = %d, want 2 (4 jobs, 2 fit)", vl.Pending)
	}
}

func TestStatsCounting(t *testing.T) {
	s := newSite(t)
	// gateway_requests_total is a census of signed envelopes (v3 stream
	// traffic has its own gateway_stream_* counters).
	c := s.envelopes(s.alice)
	_ = c.call(context.Background(), "FZJ", protocol.MsgList, protocol.ListRequest{}, &protocol.ListReply{})
	_ = c.call(context.Background(), "FZJ", protocol.MsgTransfer, protocol.TransferRequest{}, nil) // rejected: role
	snap := s.gw.Telemetry().Snapshot()
	if got := snap.Total("gateway_requests_total"); got != 2 {
		t.Fatalf("requests = %v, want 2", got)
	}
	if got := snap.Total("gateway_rejected_total"); got != 1 {
		t.Fatalf("rejected = %v, want 1", got)
	}
	list := series(snap, "gateway_requests_total", "type", string(protocol.MsgList))
	transfer := series(snap, "gateway_requests_total", "type", string(protocol.MsgTransfer))
	if list != 1 || transfer != 1 {
		t.Fatalf("by type: list %v, transfer %v", list, transfer)
	}
}

func TestMalformedEnvelope(t *testing.T) {
	s := newSite(t)
	reply := s.gw.HandleContext(context.Background(), []byte("this is not an envelope"))
	tp, raw, _, _, err := protocol.Open(s.ca, reply)
	if err != nil {
		t.Fatalf("error reply not sealed properly: %v", err)
	}
	if tp != protocol.MsgError {
		t.Fatalf("reply type = %s, want error", tp)
	}
	var er protocol.ErrorReply
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatalf("decoding error reply: %v", err)
	}
	if er.Code != "authentication" {
		t.Fatalf("code = %q, want authentication", er.Code)
	}
}

func TestConsignIdempotency(t *testing.T) {
	s := newSite(t)
	c := s.client(s.alice)
	job := scriptJob("once", "echo once\n")
	raw, _ := ajo.Marshal(job)
	req := protocol.ConsignRequest{ConsignID: "retry-1", AJO: raw}
	var r1, r2 protocol.ConsignReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpConsign, req, &r1); err != nil {
		t.Fatalf("consign 1: %v", err)
	}
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpConsign, req, &r2); err != nil {
		t.Fatalf("consign 2: %v", err)
	}
	if r1.Job != r2.Job {
		t.Fatalf("retried consign created a second job: %s vs %s", r1.Job, r2.Job)
	}
	var list protocol.ListReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpList, protocol.ListRequest{}, &list); err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list.Jobs) != 1 {
		t.Fatalf("list has %d jobs, want 1", len(list.Jobs))
	}
}

func TestForgedUserDNInAJO(t *testing.T) {
	s := newSite(t)
	c := s.client(s.alice)
	job := scriptJob("forged", "echo x\n")
	job.UserDN = core.MakeDN("Somebody Else", "X", "DE")
	raw, _ := ajo.Marshal(job)
	var reply protocol.ConsignReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpConsign, protocol.ConsignRequest{AJO: raw}, &reply); err == nil {
		if reply.Accepted {
			t.Fatal("AJO with a forged user DN was accepted from a user-role signer")
		}
	}
}
