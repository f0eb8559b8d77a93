package pki

import (
	"crypto/tls"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"unicore/internal/core"
)

func newCA(t *testing.T) *Authority {
	t.Helper()
	ca, err := NewAuthority("Test-PCA")
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func TestIssueUserDN(t *testing.T) {
	ca := newCA(t)
	cred, err := ca.IssueUser("Alice Example", "FZ Juelich")
	if err != nil {
		t.Fatal(err)
	}
	want := core.MakeDN("Alice Example", "FZ Juelich", "DE")
	if cred.DN() != want {
		t.Fatalf("DN = %q, want %q", cred.DN(), want)
	}
	if cred.Role != RoleUser {
		t.Fatalf("Role = %q", cred.Role)
	}
}

func TestVerifyCertRoles(t *testing.T) {
	ca := newCA(t)
	user, _ := ca.IssueUser("U", "O")
	server, _ := ca.IssueServer("gw.fzj.de")
	soft, _ := ca.IssueSoftware("UNICORE Consortium")

	if _, err := ca.VerifyCert(user.Cert, RoleUser); err != nil {
		t.Errorf("user as user: %v", err)
	}
	if _, err := ca.VerifyCert(user.Cert, RoleServer); !errors.Is(err, ErrWrongUsage) {
		t.Errorf("user as server: %v", err)
	}
	if _, err := ca.VerifyCert(server.Cert, RoleServer); err != nil {
		t.Errorf("server as server: %v", err)
	}
	if _, err := ca.VerifyCert(soft.Cert, RoleSoftware); err != nil {
		t.Errorf("software as software: %v", err)
	}
	if got := CertRole(soft.Cert); got != RoleSoftware {
		t.Errorf("CertRole = %q", got)
	}
}

func TestVerifyCertRejectsForeignCA(t *testing.T) {
	ca1 := newCA(t)
	ca2 := newCA(t)
	cred, _ := ca2.IssueUser("Mallory", "Elsewhere")
	if _, err := ca1.VerifyCert(cred.Cert, RoleUser); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("foreign cert accepted: %v", err)
	}
}

func TestRevocation(t *testing.T) {
	ca := newCA(t)
	cred, _ := ca.IssueUser("Bob", "RUS")
	if _, err := ca.VerifyCert(cred.Cert, RoleUser); err != nil {
		t.Fatal(err)
	}
	ca.Revoke(cred.Cert)
	if _, err := ca.VerifyCert(cred.Cert, RoleUser); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked cert accepted: %v", err)
	}
	if !ca.IsRevoked(cred.Cert) {
		t.Fatal("IsRevoked = false")
	}
}

func TestDetachedSignatureRoundTrip(t *testing.T) {
	ca := newCA(t)
	signer, _ := ca.IssueSoftware("UNICORE Consortium")
	payload := []byte("the JPA applet bytes")
	sig, err := signer.Sign(payload)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := ca.VerifySignature(payload, sig, RoleSoftware)
	if err != nil {
		t.Fatal(err)
	}
	if dn != signer.DN() {
		t.Fatalf("signer DN = %q", dn)
	}
}

func TestTamperedPayloadRejected(t *testing.T) {
	ca := newCA(t)
	signer, _ := ca.IssueSoftware("Pub")
	payload := []byte("applet v1")
	sig, _ := signer.Sign(payload)
	payload[0] ^= 0xff
	if _, err := ca.VerifySignature(payload, sig, RoleSoftware); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered payload accepted: %v", err)
	}
}

func TestSignatureRoleEnforced(t *testing.T) {
	ca := newCA(t)
	user, _ := ca.IssueUser("U", "O")
	payload := []byte("data")
	sig, _ := user.Sign(payload)
	// A user signature is fine when a user is expected...
	if _, err := ca.VerifySignature(payload, sig, RoleUser); err != nil {
		t.Fatal(err)
	}
	// ...but must not pass as software (applet) provenance.
	if _, err := ca.VerifySignature(payload, sig, RoleSoftware); !errors.Is(err, ErrWrongUsage) {
		t.Fatalf("user cert accepted as software signer: %v", err)
	}
}

func TestSignatureFromRevokedCertRejected(t *testing.T) {
	ca := newCA(t)
	signer, _ := ca.IssueSoftware("Pub")
	payload := []byte("applet")
	sig, _ := signer.Sign(payload)
	ca.Revoke(signer.Cert)
	if _, err := ca.VerifySignature(payload, sig, RoleSoftware); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked signer accepted: %v", err)
	}
}

func TestSerialsUnique(t *testing.T) {
	ca := newCA(t)
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		c, err := ca.IssueUser("U", "O")
		if err != nil {
			t.Fatal(err)
		}
		s := c.Cert.SerialNumber.String()
		if seen[s] {
			t.Fatalf("duplicate serial %s", s)
		}
		seen[s] = true
	}
}

// TestMutualTLSHandshake exercises the full §4.1 handshake over a real
// socket: the server presents its certificate, then requires and verifies
// the user certificate.
func TestMutualTLSHandshake(t *testing.T) {
	ca := newCA(t)
	server, _ := ca.IssueServer("gw.test", "localhost", "127.0.0.1")
	user, _ := ca.IssueUser("Alice", "FZJ")

	ln, err := tls.Listen("tcp", "127.0.0.1:0", ServerTLS(server, ca))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var peerCN string
	var serverErr error
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			serverErr = err
			return
		}
		defer conn.Close()
		tc := conn.(*tls.Conn)
		if err := tc.Handshake(); err != nil {
			serverErr = err
			return
		}
		peerCN = tc.ConnectionState().PeerCertificates[0].Subject.CommonName
		_, _ = io.WriteString(conn, "ok")
	}()

	cfg := ClientTLS(user, ca)
	cfg.ServerName = "localhost"
	conn, err := tls.Dial("tcp", ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	wg.Wait()
	if serverErr != nil {
		t.Fatal(serverErr)
	}
	if peerCN != "Alice" {
		t.Fatalf("server saw peer CN %q, want Alice", peerCN)
	}
}

// TestMutualTLSRejectsCertlessClient verifies a client without a certificate
// cannot get past the gateway handshake.
func TestMutualTLSRejectsCertlessClient(t *testing.T) {
	ca := newCA(t)
	server, _ := ca.IssueServer("gw.test", "localhost", "127.0.0.1")

	ln, err := tls.Listen("tcp", "127.0.0.1:0", ServerTLS(server, ca))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			tc := conn.(*tls.Conn)
			_ = tc.Handshake()
			conn.Close()
		}
	}()

	cfg := &tls.Config{RootCAs: ca.Pool(), ServerName: "localhost", MinVersion: tls.VersionTLS13}
	conn, err := tls.Dial("tcp", ln.Addr().String(), cfg)
	if err == nil {
		// Under TLS 1.3 the server's rejection surfaces on first read.
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1)
		_, err = conn.Read(buf)
		conn.Close()
	}
	if err == nil {
		t.Fatal("certificate-less client was accepted")
	}
}
