package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/federation"
	"unicore/internal/machine"
	"unicore/internal/njs"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/sim"
	"unicore/internal/uudb"
)

// TestUnknownTypesShareOneCounter: the type string is the sender's to choose,
// so a thousand distinct bogus types must land in one Stats bucket, one
// failure cause and one series per metric — not a thousand of each.
func TestUnknownTypesShareOneCounter(t *testing.T) {
	s := newSite(t)
	send := func(i int) {
		env, err := protocol.Seal(s.alice, protocol.MsgType(fmt.Sprintf("bogus-%d", i)), struct{}{})
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		_, raw, _, _, err := protocol.Open(s.ca, s.gw.HandleContext(context.Background(), env))
		if err != nil || !strings.Contains(string(raw), fmt.Sprintf("bogus-%d", i)) {
			t.Fatalf("reply to bogus-%d: %s, %v; want a signed error naming the type", i, raw, err)
		}
	}
	send(0)
	before := len(s.gw.Telemetry().Snapshot().Metrics)
	for i := 1; i < 1000; i++ {
		send(i)
	}
	snap := s.gw.Telemetry().Snapshot()
	if got := len(snap.Metrics); got != before {
		t.Fatalf("after 1000 bogus types the scrape has %d series; after one: %d", got, before)
	}
	typed := series(snap, "gateway_requests_total", "type", string(unknownType))
	refused := series(snap, "gateway_rejected_total", "cause", string(unknownType))
	requests, rejected := snap.Total("gateway_requests_total"), snap.Total("gateway_rejected_total")
	if typed != 1000 || refused != 1000 || requests != 1000 || rejected != 1000 {
		t.Fatalf("%v requests (%v as %q), %v rejected (%v as %[3]q); want 1000 of each", requests, typed, unknownType, rejected, refused)
	}
}

// grid is two federated gateways — FZJ fronting T3E, DWD fronting SP2 — on
// one in-process network: the smallest testbed on which a request can be
// served locally, refused, or relayed to a peer.
type grid struct {
	clock      *sim.VirtualClock
	ca         *pki.Authority
	net        *protocol.InProc
	reg        *protocol.Registry
	gw         map[core.Usite]*Gateway
	alice, bob *pki.Credential
	peer       *pki.Credential // DWD's server credential: a server-role caller at FZJ
	origin     *pki.Credential // FZJ's server credential: a server-role caller at DWD
}

func newGrid(t *testing.T) *grid {
	t.Helper()
	ca, err := pki.NewAuthority("DFN-PCA")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	g := &grid{
		clock: sim.NewVirtualClock(), ca: ca, net: protocol.NewInProc(), reg: protocol.NewRegistry(),
		gw: make(map[core.Usite]*Gateway),
	}
	for _, u := range []struct{ name, cn string }{{"alice", "Alice Ahlmann"}, {"bob", "Bob Bauer"}} {
		cred, err := ca.IssueUser(u.cn, "FZJ")
		if err != nil {
			t.Fatalf("IssueUser: %v", err)
		}
		if u.name == "alice" {
			g.alice = cred
		} else {
			g.bob = cred
		}
	}
	feds := make(map[core.Usite]*federation.Federation)
	for _, site := range []struct {
		usite core.Usite
		vsite core.Vsite
	}{{"FZJ", "T3E"}, {"DWD", "SP2"}} {
		host := "gw." + strings.ToLower(string(site.usite))
		cred, err := ca.IssueServer("gateway."+string(site.usite), host)
		if err != nil {
			t.Fatalf("IssueServer: %v", err)
		}
		users := uudb.New()
		for _, u := range []*pki.Credential{g.alice, g.bob} {
			users.AddUser(u.DN(), "user@grid")
			if err := users.AddMapping(u.DN(), site.vsite, uudb.Login{UID: "u", Groups: []string{"grid"}}); err != nil {
				t.Fatalf("AddMapping: %v", err)
			}
		}
		n, err := njs.New(njs.Config{
			Usite: site.usite, Clock: g.clock,
			Vsites: []njs.VsiteConfig{{Name: site.vsite, Profile: machine.CrayT3E(64)}},
			Logins: users.Map,
		})
		if err != nil {
			t.Fatalf("njs.New: %v", err)
		}
		gw, err := New(Config{Usite: site.usite, Cred: cred, CA: ca, Backend: n})
		if err != nil {
			t.Fatalf("gateway.New: %v", err)
		}
		g.net.Register(host, gw)
		g.reg.Add(site.usite, "https://"+host)
		fed, err := federation.New(federation.Config{
			Usite: site.usite, URL: "https://" + host, Clock: g.clock,
			Client: protocol.NewClient(g.net, cred, ca, g.reg),
		})
		if err != nil {
			t.Fatalf("federation.New: %v", err)
		}
		gw.SetFederation(fed)
		g.gw[site.usite], feds[site.usite] = gw, fed
		if site.usite == "DWD" {
			g.peer = cred
		} else {
			g.origin = cred
		}
	}
	for a, fa := range feds {
		for b := range feds {
			if a != b {
				if err := fa.AddPeer(b, "https://gw."+strings.ToLower(string(b))); err != nil {
					t.Fatalf("AddPeer: %v", err)
				}
			}
		}
	}
	for round := 0; round < 2; round++ {
		for _, f := range feds {
			if err := f.GossipOnce(context.Background()); err != nil {
				t.Fatalf("GossipOnce: %v", err)
			}
		}
	}
	return g
}

// submit consigns a one-script job for a user through FZJ's gateway, at the
// named Usite, and runs it to completion.
func (g *grid) submit(t *testing.T, user *pki.Credential, target core.Target) core.JobID {
	t.Helper()
	job := scriptJob("both-doors", "write out.dat 64\necho done\n")
	job.Target = target
	raw, err := ajo.Marshal(job)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var reply protocol.ConsignReply
	c := protocol.NewClient(g.net, user, g.ca, g.reg)
	defer c.Close()
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpConsign, protocol.ConsignRequest{ConsignID: string(job.ID()), AJO: raw}, &reply); err != nil || !reply.Accepted {
		t.Fatalf("consign at %s: %+v, %v", target, reply, err)
	}
	g.clock.RunUntilIdle(100000)
	return reply.Job
}

// prober is implemented, in this test file, by every row of the operation
// table, so the table is ranged over without naming its instantiations.
type prober interface {
	// probe builds the row's request — scoped to the job and the
	// staged-upload handle, asking for the job's out.dat, consigning an empty
	// AJO, delivering chunk 0, aborting, naming the jpa applet and FZJ's
	// Vsite: whichever of those fields the request type has — and a fresh
	// reply to decode into.
	probe(job core.JobID, handle string) (request, replyOut any)
	describe() (role, relay string)
	// frames returns the frame kinds of the op the row rides.
	frames() (request, reply byte)
	// frame runs a request of the row's type through protocol.Do on the op
	// the row rides (frameDoor).
	frame(ctx context.Context, c *protocol.Client, usite core.Usite, request, replyOut any) error
}

func (o *op[Req, Rep]) probe(job core.JobID, handle string) (any, any) {
	var req Req
	v := reflect.ValueOf(&req).Elem()
	chunk := []byte("chunk zero")
	for name, value := range map[string]any{
		"Job": job, "Handle": handle, "File": "out.dat", "AJO": []byte("{}"),
		"Data": chunk, "CRC": crc64.Checksum(chunk, crc64.MakeTable(crc64.ECMA)),
		"Op": ajo.OpAbort, "Name": "jpa", "Vsite": "T3E",
	} {
		if f := v.FieldByName(name); f.IsValid() {
			f.Set(reflect.ValueOf(value).Convert(f.Type()))
		}
	}
	return req, new(Rep)
}

func (o *op[Req, Rep]) frame(ctx context.Context, c *protocol.Client, usite core.Usite, request, replyOut any) error {
	rep, _ := replyOut.(*Rep)
	return protocol.Do(ctx, c, usite, o.wire, request.(Req), rep)
}

func (o *op[Req, Rep]) frames() (request, reply byte) {
	request, _, reply = o.wire.Frames()
	return request, reply
}

func (o *op[Req, Rep]) describe() (role, relay string) {
	role, relay = "user", "never"
	if o.serverOnly != "" {
		role = "server"
	}
	switch {
	case o.job != nil:
		relay = "by job"
	case o.handle != nil:
		relay = "by handle"
	}
	return role, relay
}

// canonical renders a reply for comparison between the doors: as JSON, with
// what no reader can tell apart (an absent list against an empty one) and
// what no two calls share (a freshly minted upload handle, the counters of a
// live scrape) taken out. ok reports whether the taken-out parts were there.
func canonical(t *testing.T, msg protocol.MsgType, reply any) (doc string, ok bool) {
	t.Helper()
	raw, err := json.Marshal(reply)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatalf("%s reply is not a JSON object: %v", msg, err)
	}
	ok = true
	switch msg {
	case protocol.MsgPutOpen:
		ok = fields["handle"] != ""
		delete(fields, "handle")
	case protocol.MsgMetrics:
		snaps, _ := fields["snapshots"].([]any)
		ok = len(snaps) > 0
		for i, s := range snaps {
			snaps[i] = s.(map[string]any)["origin"]
		}
	case protocol.MsgFedAdvertise:
		// Every answer stamps a fresh self-advertisement.
		ads, _ := fields["ads"].([]any)
		ok = len(ads) > 0
		for i, ad := range ads {
			ads[i] = ad.(map[string]any)["origin"]
		}
	}
	for k, v := range fields {
		switch v := v.(type) {
		case nil:
			delete(fields, k)
		case []any:
			if len(v) == 0 {
				delete(fields, k)
			}
		case map[string]any:
			if len(v) == 0 {
				delete(fields, k)
			}
		}
	}
	return fmt.Sprint(fields), ok
}

// TestBothDoorsAgree sends the same request through the signed-envelope door
// (sealed by hand into HandleContext) and through the frame stream, for every
// op of the table, and requires the same reply and the same error text from
// both. The scenarios cover each way the shared row
// can answer: served locally, refused by role (a user asking for a
// server-only op), refused by ownership, not found, and relayed to the peer
// gateway that holds the job. Ops and their request types come from the
// code's tables, so a new framed op is covered without editing this test.
func TestBothDoorsAgree(t *testing.T) {
	g := newGrid(t)
	software, err := g.ca.IssueSoftware("UNICORE Consortium")
	if err != nil {
		t.Fatalf("IssueSoftware: %v", err)
	}
	jpa, err := SignApplet(software, "jpa", "1.2", []byte("job preparation agent"))
	if err != nil {
		t.Fatalf("SignApplet: %v", err)
	}
	if err := g.gw["FZJ"].InstallApplet(jpa); err != nil {
		t.Fatalf("InstallApplet: %v", err)
	}
	local := g.submit(t, g.alice, core.Target{Usite: "FZJ", Vsite: "T3E"})
	remote := g.submit(t, g.alice, core.Target{Usite: "DWD", Vsite: "SP2"})
	if !strings.HasPrefix(string(remote), "DWD-") {
		t.Fatalf("job %s was not forwarded to DWD", remote)
	}
	// Two staged uploads opened at FZJ: one into its own spool, one for DWD's
	// Vsite, which FZJ relays to the peer, whose spool names it.
	uploads := make(map[core.Vsite]string)
	for _, vsite := range []core.Vsite{"T3E", "SP2"} {
		var opened protocol.PutOpenReply
		c := protocol.NewClient(g.net, g.alice, g.ca, g.reg)
		defer c.Close()
		if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpPutOpen, protocol.PutOpenRequest{Vsite: vsite, Name: "in.dat"}, &opened); err != nil {
			t.Fatalf("put-open for %s: %v", vsite, err)
		}
		uploads[vsite] = opened.Handle
	}
	if site := g.gw["FZJ"].fed.Load().HandleSite(uploads["SP2"]); site != "DWD" {
		t.Fatalf("the upload for DWD's Vsite has handle %s, which names %q, not DWD", uploads["SP2"], site)
	}
	scenarios := []struct {
		name   string
		caller *pki.Credential
		job    core.JobID
		handle string
	}{
		{"owner, local job and upload", g.alice, local, uploads["T3E"]},
		{"peer server, local job", g.peer, local, "no-such-handle"},
		{"foreign owner", g.bob, local, uploads["T3E"]},
		{"unknown job and handle", g.alice, "FZJ-999999", "no-such-handle"},
		{"owner, job and upload relayed to DWD", g.alice, remote, uploads["SP2"]},
		{"stranger, job and upload relayed to DWD", g.bob, remote, uploads["SP2"]},
	}
	// In table order of the message names, so a run is repeatable: a chunk
	// lands before the commit that seals it.
	var framed []protocol.MsgType
	for msg := range ops {
		framed = append(framed, msg)
	}
	sort.Slice(framed, func(i, j int) bool { return framed[i] < framed[j] })
	frameCount := func() float64 {
		return g.gw["FZJ"].Telemetry().Snapshot().Total("gateway_stream_frames_total")
	}
	for _, sc := range scenarios {
		envelopes := envelopeDoor{gw: g.gw, cred: sc.caller, ca: g.ca}
		frames := frameDoor{protocol.NewClient(g.net, sc.caller, g.ca, g.reg)}
		defer frames.Close()
		for _, msg := range framed {
			row := ops[msg].(prober)
			req, viaEnvelope := row.probe(sc.job, sc.handle)
			_, viaFrame := row.probe(sc.job, sc.handle)
			errEnvelope := envelopes.call(context.Background(), "FZJ", msg, req, viaEnvelope)
			before, posted := frameCount(), g.gw["FZJ"].Telemetry().Snapshot().Total("gateway_requests_total")
			errFrame := frames.call(context.Background(), "FZJ", msg, req, viaFrame)
			if frameCount() == before || g.gw["FZJ"].Telemetry().Snapshot().Total("gateway_requests_total") != posted {
				t.Errorf("%s / %s: the wire table frames this op, but the call reached the gateway as an envelope", sc.name, msg)
			}
			if fmt.Sprint(errEnvelope) != fmt.Sprint(errFrame) {
				t.Errorf("%s / %s: envelope door says %v, frame door says %v", sc.name, msg, errEnvelope, errFrame)
			}
			e, eok := canonical(t, msg, viaEnvelope)
			f, fok := canonical(t, msg, viaFrame)
			if e != f || (errFrame == nil && !(eok && fok)) {
				t.Errorf("%s / %s: envelope door replies %s, frame door replies %s", sc.name, msg, e, f)
			}
			if role, _ := row.describe(); errEnvelope == nil && sc.caller.Role != pki.RoleServer && role == "server" {
				t.Errorf("%s / %s: a user was served a server-only op", sc.name, msg)
			}
		}
	}
	// The rows the scenarios exist for, spelled out once on the frame door.
	frames := protocol.NewClient(g.net, g.alice, g.ca, g.reg)
	defer frames.Close()
	err = protocol.Do(context.Background(), frames, "FZJ", protocol.OpTransfer, protocol.TransferRequest{Job: local, File: "out.dat"}, nil)
	if err == nil || !strings.Contains(err.Error(), ErrNotPermitted.Error()) {
		t.Errorf("transfer as a user: err = %v, want the role refusal", err)
	}
	var poll protocol.PollReply
	if err := protocol.Do(context.Background(), frames, "FZJ", protocol.OpPoll, protocol.PollRequest{Job: remote}, &poll); err != nil || !poll.Found {
		t.Errorf("poll of the relayed job: %+v, %v", poll, err)
	}
	var out protocol.OutcomeReply
	if err := protocol.Do(context.Background(), frames, "FZJ", protocol.OpOutcome, protocol.OutcomeRequest{Job: remote}, &out); err != nil || !out.Found {
		t.Fatalf("outcome of the relayed job: found=%v, %v", out.Found, err)
	}
	if tree := out.Outcome; tree.Status != ajo.StatusSuccessful || len(tree.Children) != 1 {
		t.Errorf("outcome of the relayed job: %+v", tree)
	}
	var commit protocol.PutCommitReply
	if err := protocol.Do(context.Background(), frames, "FZJ", protocol.OpPutCommit, protocol.PutCommitRequest{
		Handle: uploads["SP2"], CRC: crc64.Checksum([]byte("chunk zero"), crc64.MakeTable(crc64.ECMA)),
	}, &commit); err != nil || commit.Chunks != 1 {
		t.Errorf("commit of the upload DWD holds: %+v, %v", commit, err)
	}
}

// TestRelayIsJudgedByTheNJSThatHoldsTheJob: a peer's stream that acts for a
// user is that user's at the gateway it reaches, so the NJS holding the job
// answers it as the user's own call. FZJ's server, acting for Alice, reaches
// her forwarded job; acting for Bob, it is refused by DWD's NJS on every
// job-scoped op — a server credential does not lend its role to the user it
// names. Each user is named once, in the hello of the stream kept for them.
func TestRelayIsJudgedByTheNJSThatHoldsTheJob(t *testing.T) {
	g := newGrid(t)
	ctx := context.Background()
	remote := g.submit(t, g.alice, core.Target{Usite: "DWD", Vsite: "SP2"})
	c := protocol.NewClient(g.net, g.origin, g.ca, g.reg)
	defer c.Close()
	hellos := func() float64 {
		return series(g.gw["DWD"].Telemetry().Snapshot(), "gateway_stream_hellos_total", "role", string(pki.RoleServer))
	}
	before := hellos()

	var poll protocol.PollReply
	var out protocol.OutcomeReply
	for i := 0; i < 3; i++ {
		if err := protocol.DoFor(ctx, c, "DWD", g.alice.DN(), protocol.OpPoll, protocol.PollRequest{Job: remote}, &poll); err != nil || !poll.Found {
			t.Fatalf("poll acting for the owner: %+v, %v", poll, err)
		}
	}
	if err := protocol.DoFor(ctx, c, "DWD", g.alice.DN(), protocol.OpOutcome, protocol.OutcomeRequest{Job: remote}, &out); err != nil || !out.Found {
		t.Fatalf("outcome acting for the owner: found=%v, %v", out.Found, err)
	}

	refused := njs.ErrNotAuthorized.Error()
	bob := g.bob.DN()
	if err := protocol.DoFor(ctx, c, "DWD", bob, protocol.OpPoll, protocol.PollRequest{Job: remote}, &poll); err == nil || !strings.Contains(err.Error(), refused) {
		t.Errorf("poll acting for Bob: err = %v, want %q", err, refused)
	}
	if err := protocol.DoFor(ctx, c, "DWD", bob, protocol.OpOutcome, protocol.OutcomeRequest{Job: remote}, &out); err == nil || !strings.Contains(err.Error(), refused) {
		t.Errorf("outcome acting for Bob: err = %v, want %q", err, refused)
	}
	if err := protocol.DoFor(ctx, c, "DWD", bob, protocol.OpFetch, protocol.FetchRequest{Job: remote, File: "out.dat"}, nil); err == nil || !strings.Contains(err.Error(), refused) {
		t.Errorf("fetch acting for Bob: err = %v, want %q", err, refused)
	}
	if err := protocol.DoFor(ctx, c, "DWD", bob, protocol.OpSubscribe, protocol.SubscribeRequest{Job: remote}, nil); err == nil || !strings.Contains(err.Error(), refused) {
		t.Errorf("events acting for Bob: err = %v, want %q", err, refused)
	}
	var ctl protocol.ControlReply
	if err := protocol.DoFor(ctx, c, "DWD", bob, protocol.OpControl, protocol.ControlRequest{Job: remote, Op: ajo.OpAbort}, &ctl); err != nil || ctl.OK || !strings.Contains(ctl.Reason, refused) {
		t.Errorf("abort acting for Bob: %+v, %v; want refused with %q", ctl, err, refused)
	}
	// A user-role op a server may not run stays refused for the user it acts for.
	if err := protocol.DoFor(ctx, c, "DWD", bob, protocol.OpTransfer, protocol.TransferRequest{Job: remote, File: "out.dat"}, nil); err == nil || !strings.Contains(err.Error(), ErrNotPermitted.Error()) {
		t.Errorf("transfer acting for Bob: err = %v, want the role refusal", err)
	}
	if got := hellos() - before; got != 2 {
		t.Errorf("DWD verified %v server hellos for two users' streams, want 2", got)
	}
	// Bob's abort did not reach the job.
	if err := protocol.DoFor(ctx, c, "DWD", g.alice.DN(), protocol.OpPoll, protocol.PollRequest{Job: remote}, &poll); err != nil || poll.Summary.Status != ajo.StatusSuccessful {
		t.Errorf("owner's poll after Bob's abort: %+v, %v", poll, err)
	}
}

// TestUserGossipIsRefused: gossip is gateway-to-gateway traffic. A user's
// stream that sends an advertisement is refused by the row's serverOnly
// reason, at a federated gateway and at one without a federation alike, and
// the federation ingests nothing; a peer's stream is answered.
func TestUserGossipIsRefused(t *testing.T) {
	g := newGrid(t)
	fed := g.gw["FZJ"].fed.Load()
	inBefore := fed.Registry().Snapshot().Total("fed_advertise_total")
	push := protocol.FedAdvertiseRequest{From: "EVIL", Ads: []protocol.FedAd{{Origin: "EVIL", URL: "https://gw.evil", Epoch: 1}}}
	c := protocol.NewClient(g.net, g.alice, g.ca, g.reg)
	defer c.Close()
	var reply protocol.FedAdvertiseReply
	err := protocol.Do(context.Background(), c, "FZJ", protocol.OpAdvertise, push, &reply)
	if err == nil || !strings.Contains(err.Error(), opAdvertise.serverOnly) || !strings.Contains(err.Error(), ErrNotPermitted.Error()) {
		t.Fatalf("user gossip: err = %v, want the %q refusal", err, opAdvertise.serverOnly)
	}
	if got := fed.Registry().Snapshot().Total("fed_advertise_total"); got != inBefore {
		t.Errorf("a refused user's gossip moved fed_advertise_total by %v", got-inBefore)
	}
	if _, err := fed.VsiteHost("EVIL"); err == nil {
		t.Error("a user's advertisement was ingested")
	}
	s := newSite(t)
	uc := s.client(s.alice)
	defer uc.Close()
	if err := protocol.Do(context.Background(), uc, "FZJ", protocol.OpAdvertise, push, nil); err == nil || !strings.Contains(err.Error(), opAdvertise.serverOnly) {
		t.Errorf("user gossip at an unfederated gateway: err = %v, want the %q refusal", err, opAdvertise.serverOnly)
	}
	// The peer's own stream is answered with FZJ's view, its own ad first.
	pc := protocol.NewClient(g.net, g.peer, g.ca, g.reg)
	defer pc.Close()
	if err := protocol.Do(context.Background(), pc, "FZJ", protocol.OpAdvertise, protocol.FedAdvertiseRequest{From: "DWD"}, &reply); err != nil || len(reply.Ads) == 0 || reply.Ads[0].Origin != "FZJ" {
		t.Errorf("peer gossip: %+v, %v", reply, err)
	}
}

// TestUserHelloActingForIsRefused: only a server relays calls for someone
// else. A user-signed hello that names a user to act for — even the signer —
// is refused by name, and nothing on it reaches the gateway's table.
func TestUserHelloActingForIsRefused(t *testing.T) {
	g := newGrid(t)
	c := protocol.NewClient(g.net, g.alice, g.ca, g.reg)
	defer c.Close()
	frames := func() float64 { return g.gw["FZJ"].Telemetry().Snapshot().Total("gateway_stream_frames_total") }
	before := frames()
	for _, as := range []core.DN{g.bob.DN(), g.alice.DN()} {
		var list protocol.ListReply
		err := protocol.DoFor(context.Background(), c, "FZJ", as, protocol.OpList, protocol.ListRequest{}, &list)
		if err == nil || !strings.Contains(err.Error(), protocol.ErrActingFor.Error()) {
			t.Errorf("user hello acting for %s: err = %v, want %q", as, err, protocol.ErrActingFor)
		}
	}
	if got := frames() - before; got != 0 {
		t.Errorf("the gateway served %v frames on refused streams", got)
	}
	// Alice's own stream, which names nobody, is served.
	var list protocol.ListReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpList, protocol.ListRequest{}, &list); err != nil {
		t.Errorf("Alice's own list: %v", err)
	}
}

// TestProtocolDocListsTheTables parses the "Message types" table of
// docs/PROTOCOL.md and fails when its rows disagree, in either direction,
// with the code: request/reply pairing and frame form from the protocol's
// tables, minimum role and relay rule from the gateway's.
func TestProtocolDocListsTheTables(t *testing.T) {
	data, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatalf("reading the protocol document: %v", err)
	}
	_, section, ok := strings.Cut(string(data), "### Message types\n")
	if !ok {
		t.Fatal(`docs/PROTOCOL.md has no "### Message types" section`)
	}
	// want[request] = the row the code implies.
	want := map[string][]string{
		// hello is the protocol's own op: it authenticates a stream and never
		// reaches the gateway's table.
		"`hello`": {"`hello-reply`", "`hello` / `hello-ok`", "user", "never"},
	}
	for msg, row := range ops {
		req, rep := row.(prober).frames()
		form := "`" + protocol.FrameKindName(req) + "` / `" + protocol.FrameKindName(rep) + "`"
		reply, ok := protocol.ReplyType(msg)
		if !ok {
			t.Errorf("gateway row %s is not a request type of the protocol's operation table", msg)
		}
		role, relay := row.(prober).describe()
		want["`"+string(msg)+"`"] = []string{"`" + string(reply) + "`", form, role, relay}
	}
	titles := []string{"request", "reply", "frame form", "minimum role", "relayed", "purpose (paper §)"}
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		switch {
		case !inTable:
			inTable = true
			if !reflect.DeepEqual(cells, titles) {
				t.Fatalf("message table columns = %q, want %q", cells, titles)
			}
		case strings.HasPrefix(cells[0], "-"), cells[0] == "—": // the rule; the error reply, which answers anything
		default:
			w, ok := want[cells[0]]
			if !ok {
				t.Errorf("PROTOCOL.md lists %s, which no table in the code has", cells[0])
				continue
			}
			if got := cells[1:5]; !reflect.DeepEqual(got, w) {
				t.Errorf("PROTOCOL.md row %s says %q, the code says %q", cells[0], got, w)
			}
			delete(want, cells[0])
		}
	}
	for req := range want {
		t.Errorf("operation %s is missing from PROTOCOL.md's message table", req)
	}
}
