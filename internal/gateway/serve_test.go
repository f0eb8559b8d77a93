package gateway

import (
	"context"
	"crypto/tls"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/pki"
	"unicore/internal/protocol"
)

// TestMutualTLSEndToEnd serves a real gateway over TLS on the loopback and
// runs the full §4.1 handshake: the server presents its certificate, the
// client presents a user certificate, and a job flows end to end.
func TestMutualTLSEndToEnd(t *testing.T) {
	s := newSite(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener: %v", err)
	}
	defer l.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- ServeTLS(l, s.gw, s.gw.cred, s.ca) }()

	// The registry points at the real TLS address; localhost certificates
	// carry the "gw.fzj" DNS name, so the client must set the server name.
	url := "https://" + l.Addr().String()
	reg := protocol.NewRegistry()
	reg.Add("FZJ", url)
	rt := ClientTransport(s.alice, s.ca)
	rt.HTTP.TLSClientConfig.ServerName = "gw.fzj"
	c := protocol.NewClient(rt, s.alice, s.ca, reg)

	job := scriptJob("over-tls", "echo tls works\n")
	raw, _ := ajo.Marshal(job)
	var reply protocol.ConsignReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpConsign, protocol.ConsignRequest{AJO: raw}, &reply); err != nil {
		t.Fatalf("consign over TLS: %v", err)
	}
	if !reply.Accepted {
		t.Fatalf("refused: %s", reply.Reason)
	}
	s.clock.RunUntilIdle(100000)
	var poll protocol.PollReply
	if err := protocol.Do(context.Background(), c, "FZJ", protocol.OpPoll, protocol.PollRequest{Job: reply.Job}, &poll); err != nil {
		t.Fatalf("poll over TLS: %v", err)
	}
	if poll.Summary.Status != ajo.StatusSuccessful {
		t.Fatalf("status = %s", poll.Summary.Status)
	}

	// A client with no certificate is refused during the handshake — the
	// §4.1 mutual authentication, before any request is processed.
	bare := &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{TLSClientConfig: &tls.Config{
			RootCAs:    s.ca.Pool(),
			ServerName: "gw.fzj",
			MinVersion: tls.VersionTLS13,
		}},
	}
	if resp, err := bare.Post(url+protocol.Endpoint, "application/json", strings.NewReader("{}")); err == nil {
		// TLS 1.3 reports missing client certs on first read or as an HTTP
		// failure; either way the request must not succeed.
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && len(body) > 0 {
			t.Fatal("request without a client certificate was served")
		}
	}
	l.Close()
	if err := <-serveErr; err != nil && !strings.Contains(err.Error(), "use of closed") {
		t.Fatalf("ServeTLS: %v", err)
	}
}

// TestServeHTTPSurface covers the Web-server surface: the UNICORE Web page,
// unknown paths, and oversized envelopes.
func TestServeHTTPSurface(t *testing.T) {
	s := newSite(t)

	// The UNICORE Web page (§4.2: the https server "provides the UNICORE
	// Web page") lists Vsites and applets.
	soft, err := s.ca.IssueSoftware("UNICORE Consortium")
	if err != nil {
		t.Fatalf("IssueSoftware: %v", err)
	}
	applet, _ := SignApplet(soft, "jpa", "1.0", []byte("payload"))
	if err := s.gw.InstallApplet(applet); err != nil {
		t.Fatalf("InstallApplet: %v", err)
	}
	rec := httptest.NewRecorder()
	s.gw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	page := rec.Body.String()
	if rec.Code != http.StatusOK || !strings.Contains(page, "FZJ/T3E") || !strings.Contains(page, "jpa") {
		t.Fatalf("web page = %d\n%s", rec.Code, page)
	}

	// Unknown paths 404.
	rec = httptest.NewRecorder()
	s.gw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nothing", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path = %d", rec.Code)
	}

	// GET on the envelope endpoint is not allowed.
	rec = httptest.NewRecorder()
	s.gw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, protocol.Endpoint, nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET endpoint = %d", rec.Code)
	}

	// Oversized request bodies are rejected before parsing.
	huge := strings.NewReader(strings.Repeat("x", maxRequest+1))
	rec = httptest.NewRecorder()
	s.gw.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, protocol.Endpoint, huge))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized request = %d", rec.Code)
	}
}

// TestFrontHTTPSurface covers the firewall front's HTTP handling.
func TestFrontHTTPSurface(t *testing.T) {
	s, front, _ := splitSite(t)
	// The front is the site's https Web server (§4.2): it serves the inner
	// gateway's UNICORE Web page, byte for byte.
	want, got := httptest.NewRecorder(), httptest.NewRecorder()
	s.gw.ServeHTTP(want, httptest.NewRequest(http.MethodGet, "/", nil))
	front.ServeHTTP(got, httptest.NewRequest(http.MethodGet, "/", nil))
	if got.Code != http.StatusOK || got.Body.String() != want.Body.String() || !strings.Contains(got.Body.String(), "FZJ/T3E") {
		t.Fatalf("web page through front = %d\n%s\nwant\n%s", got.Code, got.Body, want.Body)
	}
	rec := httptest.NewRecorder()
	front.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, protocol.Endpoint, nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET through front = %d", rec.Code)
	}
	huge := strings.NewReader(strings.Repeat("x", maxRequest+1))
	rec = httptest.NewRecorder()
	front.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, protocol.Endpoint, huge))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized through front = %d", rec.Code)
	}
}

// TestVerifyRoles ensures only user and server roles pass the gateway; a
// software-publisher certificate cannot drive the job interface.
func TestVerifyRoles(t *testing.T) {
	s := newSite(t)
	soft, err := s.ca.IssueSoftware("Sneaky Publisher")
	if err != nil {
		t.Fatalf("IssueSoftware: %v", err)
	}
	c := s.client(soft)
	err = protocol.Do(context.Background(), c, "FZJ", protocol.OpList, protocol.ListRequest{}, &protocol.ListReply{})
	if err == nil {
		t.Fatal("software-role caller was served")
	}
	if !strings.Contains(err.Error(), "role") {
		t.Fatalf("err = %v, want role refusal", err)
	}
	_ = pki.RoleSoftware
}
