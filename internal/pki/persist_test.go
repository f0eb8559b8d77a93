package pki

import (
	"strings"
	"testing"
)

func TestCredentialPEMRoundTrip(t *testing.T) {
	ca, err := NewAuthority("RT-CA")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	for _, issue := range []struct {
		name string
		fn   func() (*Credential, error)
		role Role
	}{
		{"user", func() (*Credential, error) { return ca.IssueUser("Pem User", "Org") }, RoleUser},
		{"server", func() (*Credential, error) { return ca.IssueServer("pem.server", "pem.host") }, RoleServer},
		{"software", func() (*Credential, error) { return ca.IssueSoftware("Pem Publisher") }, RoleSoftware},
	} {
		t.Run(issue.name, func(t *testing.T) {
			cred, err := issue.fn()
			if err != nil {
				t.Fatalf("issue: %v", err)
			}
			data, err := cred.EncodePEM()
			if err != nil {
				t.Fatalf("EncodePEM: %v", err)
			}
			back, err := DecodeCredentialPEM(data)
			if err != nil {
				t.Fatalf("DecodeCredentialPEM: %v", err)
			}
			if back.Role != issue.role {
				t.Fatalf("role = %s, want %s", back.Role, issue.role)
			}
			if back.DN() != cred.DN() {
				t.Fatalf("DN = %s, want %s", back.DN(), cred.DN())
			}
			// The restored key must still sign verifiably.
			sig, err := back.Sign([]byte("payload"))
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if _, err := ca.VerifySignature([]byte("payload"), sig, issue.role); err != nil {
				t.Fatalf("VerifySignature: %v", err)
			}
		})
	}
}

func TestDecodeCredentialPEMErrors(t *testing.T) {
	if _, err := DecodeCredentialPEM(nil); err == nil {
		t.Fatal("decoded empty PEM")
	}
	if _, err := DecodeCredentialPEM([]byte("not pem at all")); err == nil {
		t.Fatal("decoded garbage")
	}
}

func TestAuthorityPEMRoundTrip(t *testing.T) {
	ca, err := NewAuthority("Persist-CA")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	alice, err := ca.IssueUser("Alice", "Org")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	bob, err := ca.IssueUser("Bob", "Org")
	if err != nil {
		t.Fatalf("IssueUser: %v", err)
	}
	ca.Revoke(bob.Cert)

	data, err := ca.EncodePEM()
	if err != nil {
		t.Fatalf("EncodePEM: %v", err)
	}
	if !strings.Contains(string(data), "UNICORE CA STATE") {
		t.Fatal("state block missing")
	}
	back, err := DecodeAuthorityPEM(data)
	if err != nil {
		t.Fatalf("DecodeAuthorityPEM: %v", err)
	}
	// Alice still verifies; Bob is still revoked.
	if _, err := back.VerifyCert(alice.Cert, RoleUser); err != nil {
		t.Fatalf("alice no longer verifies: %v", err)
	}
	if _, err := back.VerifyCert(bob.Cert, RoleUser); err == nil {
		t.Fatal("bob's revocation was lost")
	}
	// New issuance continues the serial sequence: no collision with alice.
	carol, err := back.IssueUser("Carol", "Org")
	if err != nil {
		t.Fatalf("IssueUser after restore: %v", err)
	}
	if got := carol.Cert.Issuer.CommonName; got != "Persist-CA" {
		t.Fatalf("restored CA issues as %q, want Persist-CA", got)
	}
	if carol.Cert.SerialNumber.Cmp(alice.Cert.SerialNumber) == 0 ||
		carol.Cert.SerialNumber.Cmp(bob.Cert.SerialNumber) == 0 {
		t.Fatalf("serial %s collides after restore", carol.Cert.SerialNumber)
	}
	if _, err := back.VerifyCert(carol.Cert, RoleUser); err != nil {
		t.Fatalf("carol does not verify: %v", err)
	}
}
