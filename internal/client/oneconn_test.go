package client_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/gateway"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/resources"
	"unicore/internal/testbed"
)

// raceEnabled is set by race_test.go under -race, where allocation counts
// include the detector's own and mean nothing.
var raceEnabled bool

// countingListener counts the TCP connections a server accepted.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestEveryClientOpRidesOneConnection drives every kind of client op through
// one Session against a gateway served over mutual TLS on loopback TCP, and
// requires what the frame stream promises: one TCP connection, one signature
// verification (the stream's hello), no signed envelope after it — and a list
// or an outcome fetch cheap enough that the per-request envelope costs (JSON
// both ways, a signature and a verify per direction) cannot have crept back.
func TestEveryClientOpRidesOneConnection(t *testing.T) {
	const usite, vsite = core.Usite("ONE"), core.Vsite("CLUSTER")
	d, err := testbed.SingleSite(usite, vsite, 64)
	if err != nil {
		t.Fatalf("SingleSite: %v", err)
	}
	defer d.Close()
	user, err := d.NewUser("One Conn", "Test", "one")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	gw := d.Sites[usite].Gateway
	srvCred, err := d.CA.IssueServer("one-conn-listener", "localhost")
	if err != nil {
		t.Fatalf("IssueServer: %v", err)
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ln := &countingListener{Listener: tcp}
	served := make(chan error, 1)
	go func() { served <- gateway.ServeTLS(ln, gw, srvCred, d.CA) }()
	cfg := pki.ClientTLS(user, d.CA)
	cfg.ServerName = "localhost"
	httpTr := &http.Transport{TLSClientConfig: cfg}
	reg := protocol.NewRegistry()
	reg.Add(usite, "https://"+ln.Addr().String())
	pc := protocol.NewClient(protocol.NewHTTPTransport(httpTr), user, d.CA, reg)
	defer func() {
		pc.Close()
		httpTr.CloseIdleConnections()
		ln.Close()
		<-served
	}()
	sess := client.NewSession(pc, usite)
	ctx := context.Background()

	// 32 finished jobs of eight chained steps (a nine-node outcome tree
	// each), and one that stays queued behind a hold for the abort.
	submit := func(name string) core.JobID {
		b := client.NewJob(name, core.Target{Usite: usite, Vsite: vsite})
		var steps []ajo.ActionID
		for s := 0; s < 8; s++ {
			steps = append(steps, b.Script(fmt.Sprintf("step-%d", s), "cpu 1m\necho step\n",
				resources.Request{Processors: 1, RunTime: time.Hour}))
		}
		job, err := b.Chain(steps...).Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		id, err := sess.Submit(ctx, job)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		return id
	}
	var ids []core.JobID
	for j := 0; j < 32; j++ {
		ids = append(ids, submit(fmt.Sprintf("done-%02d", j)))
	}
	d.Run(10_000_000)
	doomed := submit("doomed")

	if s, err := sess.Status(ctx, ids[0]); err != nil || s.Status != ajo.StatusSuccessful || s.Total != 9 {
		t.Fatalf("Status: %+v, %v", s, err)
	}
	if evs, err := sess.Events(ctx, protocol.SubscribeRequest{Job: ids[0]}); err != nil || len(evs.Events) == 0 {
		t.Fatalf("Events: %d events, %v", len(evs.Events), err)
	}
	if jobs, err := sess.List(ctx); err != nil || len(jobs) != 33 {
		t.Fatalf("List: %d jobs, %v", len(jobs), err)
	}
	if o, err := sess.Outcome(ctx, ids[0]); err != nil || o.Status != ajo.StatusSuccessful || len(o.Children) != 8 ||
		!bytes.Contains(o.Children[7].Stdout, []byte("step")) {
		t.Fatalf("Outcome: %+v, %v", o, err)
	}
	if err := sess.Abort(ctx, doomed); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if s, err := sess.Status(ctx, doomed); err != nil || s.Status != ajo.StatusAborted {
		t.Fatalf("Status of the aborted job: %+v, %v", s, err)
	}
	if pages, err := sess.JPA().FetchResources(usite); err != nil || len(pages) != 1 {
		t.Fatalf("FetchResources: %d pages, %v", len(pages), err)
	}
	if snaps, err := sess.Metrics(ctx, true, false); err != nil || len(snaps) < 2 {
		t.Fatalf("Metrics: %d snapshots, %v", len(snaps), err)
	}
	payload := bytes.Repeat([]byte("staged "), 40<<10)
	handle, err := sess.Upload(ctx, vsite, "in.dat", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if sp, ok := d.Sites[usite].NJS.StagingSpool(vsite); !ok {
		t.Fatal("site has no spool")
	} else if info, ok := sp.Stat(handle); !ok || !info.Committed || info.Size != int64(len(payload)) {
		t.Fatalf("upload %s in the spool: %+v, found=%v", handle, info, ok)
	}

	if got := ln.accepted.Load(); got != 1 {
		t.Errorf("the session used %d TCP connections, want 1", got)
	}
	snap := gw.Telemetry().Snapshot()
	if got := snap.Total("gateway_requests_total"); got != 0 {
		t.Errorf("gateway_requests_total = %v: a client op still travels as a signed envelope", got)
	}
	if got := snap.Total("pki_verify_total"); got != 1 {
		t.Errorf("pki_verify_total = %v, want the stream hello's 1", got)
	}
	if raceEnabled {
		return
	}
	// Whole-process allocations per call: client, TLS both ways, gateway, NJS.
	if n := testing.AllocsPerRun(50, func() {
		if jobs, err := sess.List(ctx); err != nil || len(jobs) != 33 {
			t.Fatalf("List: %d jobs, %v", len(jobs), err)
		}
	}); n > 150 {
		t.Errorf("Session.List of 33 jobs allocates %.0f times per call, ceiling 150", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if o, err := sess.Outcome(ctx, ids[1]); err != nil || len(o.Children) != 8 {
			t.Fatalf("Outcome: %v", err)
		}
	}); n > 150 {
		t.Errorf("Session.Outcome of a nine-node tree allocates %.0f times per call, ceiling 150", n)
	}
}
