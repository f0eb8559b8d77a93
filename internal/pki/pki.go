// Package pki implements the UNICORE security substrate: a certificate
// authority issuing X.509 certificates to users, servers, and software
// (paper §5.2 relies on "the existence of a Certificate Authority (CA) to
// generate the X.509v3 certificates for the server systems, the software
// developers, and the users"), TLS configurations for the https mutual
// authentication of §4.1, and detached signatures used to reproduce the
// "signed applet" trust mechanism.
//
// Keys are Ed25519: fast enough that tests can mint whole deployments, and
// fully supported by crypto/x509 and crypto/tls in the standard library.
package pki

import (
	"crypto"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"

	"unicore/internal/core"
)

// Errors reported by verification.
var (
	ErrRevoked      = errors.New("pki: certificate revoked")
	ErrBadSignature = errors.New("pki: signature verification failed")
	ErrUntrusted    = errors.New("pki: certificate not issued by a trusted CA")
	ErrWrongUsage   = errors.New("pki: certificate used outside its role")
)

// Role describes what a certificate is issued for. The paper distinguishes
// users, server systems, and software developers.
type Role string

// The three roles a certificate is issued for.
const (
	// RoleUser identifies a person; the gateway maps its DN to logins.
	RoleUser Role = "user"
	// RoleServer identifies a gateway or NJS endpoint.
	RoleServer Role = "server"
	// RoleSoftware signs applets (§5.2's object signing).
	RoleSoftware Role = "software"
)

// roleOID carries the role inside the certificate as an organizational unit.
func roleOU(r Role) string { return "unicore-" + string(r) }

// Credential couples a certificate with its private key.
type Credential struct {
	Role Role
	Cert *x509.Certificate
	Key  ed25519.PrivateKey
}

// DN returns the distinguished name of the certificate subject in the
// rendering used as the UNICORE user identification.
func (c *Credential) DN() core.DN {
	return SubjectDN(c.Cert)
}

// SubjectDN renders a certificate subject as a core.DN.
func SubjectDN(cert *x509.Certificate) core.DN {
	var org, country string
	if len(cert.Subject.Organization) > 0 {
		org = cert.Subject.Organization[0]
	}
	if len(cert.Subject.Country) > 0 {
		country = cert.Subject.Country[0]
	}
	return core.MakeDN(cert.Subject.CommonName, org, country)
}

// Authority is a certificate authority. It issues certificates, maintains a
// revocation list, and hands out the trust pool for verification.
//
// Verification is on every request's hot path (each envelope is checked
// against the CA), so the revocation list sits behind an RWMutex and the
// trust pool is built once: concurrent verifies never serialize on the CA.
type Authority struct {
	mu      sync.RWMutex
	cert    *x509.Certificate
	key     ed25519.PrivateKey
	pool    *x509.CertPool
	serial  int64
	revoked map[string]bool // serial (decimal string) -> revoked
	ttl     time.Duration
}

// NewAuthority creates a self-signed CA, e.g. the DFN-PCA stand-in.
func NewAuthority(name string) (*Authority, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("pki: generating CA key: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject: pkix.Name{
			CommonName:   name,
			Organization: []string{"UNICORE Certificate Authority"},
			Country:      []string{"DE"},
		},
		NotBefore:             time.Date(1998, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:              time.Date(2099, 1, 1, 0, 0, 0, 0, time.UTC),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, pub, priv)
	if err != nil {
		return nil, fmt.Errorf("pki: self-signing CA: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert)
	return &Authority{
		cert:    cert,
		key:     priv,
		pool:    pool,
		serial:  1,
		revoked: map[string]bool{},
		ttl:     100 * 365 * 24 * time.Hour,
	}, nil
}

// Pool returns the cert pool containing just this CA, for use as a TLS
// root. The pool is immutable and shared; callers must not add to it.
func (a *Authority) Pool() *x509.CertPool {
	return a.pool
}

// issue creates a certificate for the given subject and role.
func (a *Authority) issue(subject pkix.Name, role Role, dnsNames []string, usage x509.KeyUsage, ext []x509.ExtKeyUsage) (*Credential, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("pki: generating key: %w", err)
	}
	a.mu.Lock()
	a.serial++
	serial := a.serial
	a.mu.Unlock()
	subject.OrganizationalUnit = append(subject.OrganizationalUnit, roleOU(role))
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(serial),
		Subject:      subject,
		NotBefore:    a.cert.NotBefore,
		NotAfter:     a.cert.NotAfter,
		KeyUsage:     usage,
		ExtKeyUsage:  ext,
		DNSNames:     dnsNames,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, a.cert, pub, a.key)
	if err != nil {
		return nil, fmt.Errorf("pki: issuing certificate: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &Credential{Role: role, Cert: cert, Key: priv}, nil
}

// IssueUser issues a user certificate. The DN of this certificate is the
// user's unique UNICORE identification.
func (a *Authority) IssueUser(commonName, organisation string) (*Credential, error) {
	return a.issue(pkix.Name{
		CommonName:   commonName,
		Organization: []string{organisation},
		Country:      []string{"DE"},
	}, RoleUser, nil,
		x509.KeyUsageDigitalSignature,
		[]x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth})
}

// IssueServer issues a server certificate for a gateway or NJS host.
func (a *Authority) IssueServer(commonName string, dnsNames ...string) (*Credential, error) {
	if len(dnsNames) == 0 {
		dnsNames = []string{"localhost"}
	}
	return a.issue(pkix.Name{
		CommonName:   commonName,
		Organization: []string{"UNICORE"},
		Country:      []string{"DE"},
	}, RoleServer, dnsNames,
		x509.KeyUsageDigitalSignature|x509.KeyUsageKeyEncipherment,
		[]x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth})
}

// IssueSoftware issues a code-signing certificate for a software publisher
// (the consortium signing the JPA/JMC applets).
func (a *Authority) IssueSoftware(publisher string) (*Credential, error) {
	return a.issue(pkix.Name{
		CommonName:   publisher,
		Organization: []string{"UNICORE Software"},
		Country:      []string{"DE"},
	}, RoleSoftware, nil,
		x509.KeyUsageDigitalSignature,
		[]x509.ExtKeyUsage{x509.ExtKeyUsageCodeSigning})
}

// Revoke adds the credential's certificate to the revocation list.
func (a *Authority) Revoke(cert *x509.Certificate) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.revoked[cert.SerialNumber.String()] = true
}

// IsRevoked reports whether the certificate has been revoked.
func (a *Authority) IsRevoked(cert *x509.Certificate) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.revoked[cert.SerialNumber.String()]
}

// VerifyCert checks that cert chains to this CA, has the expected role, and
// is not revoked. It returns the subject DN on success.
func (a *Authority) VerifyCert(cert *x509.Certificate, want Role) (core.DN, error) {
	if _, err := cert.Verify(x509.VerifyOptions{
		Roots:     a.Pool(),
		KeyUsages: []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	}); err != nil {
		return "", fmt.Errorf("%w: %v", ErrUntrusted, err)
	}
	if a.IsRevoked(cert) {
		return "", fmt.Errorf("%w: serial %s", ErrRevoked, cert.SerialNumber)
	}
	if want != "" && !hasRole(cert, want) {
		return "", fmt.Errorf("%w: want role %s", ErrWrongUsage, want)
	}
	return SubjectDN(cert), nil
}

func hasRole(cert *x509.Certificate, want Role) bool {
	for _, ou := range cert.Subject.OrganizationalUnit {
		if ou == roleOU(want) {
			return true
		}
	}
	return false
}

// CertRole extracts the role recorded in the certificate, or "".
func CertRole(cert *x509.Certificate) Role {
	for _, r := range []Role{RoleUser, RoleServer, RoleSoftware} {
		if hasRole(cert, r) {
			return r
		}
	}
	return ""
}

// --- Detached signatures (signed applets, signed AJOs) ---

// Signature is a detached signature over a payload, carrying the signer's
// certificate so the receiver can verify the chain and identity. This is the
// reproduction of Netscape object signing for the JPA/JMC applets.
type Signature struct {
	CertDER []byte // signer certificate, DER
	Sig     []byte // Ed25519 signature over the payload
}

// Sign produces a detached signature over payload.
func (c *Credential) Sign(payload []byte) (Signature, error) {
	sig, err := c.Key.Sign(rand.Reader, payload, crypto.Hash(0))
	if err != nil {
		return Signature{}, fmt.Errorf("pki: signing: %w", err)
	}
	return Signature{CertDER: c.Cert.Raw, Sig: sig}, nil
}

// VerifySignature checks the detached signature against the payload, verifies
// the embedded certificate against the CA with the expected role, and returns
// the signer's DN.
func (a *Authority) VerifySignature(payload []byte, s Signature, want Role) (core.DN, error) {
	cert, err := x509.ParseCertificate(s.CertDER)
	if err != nil {
		return "", fmt.Errorf("pki: parsing signer certificate: %w", err)
	}
	dn, err := a.VerifyCert(cert, want)
	if err != nil {
		return "", err
	}
	pub, ok := cert.PublicKey.(ed25519.PublicKey)
	if !ok {
		return "", fmt.Errorf("%w: non-Ed25519 signer key", ErrBadSignature)
	}
	if !ed25519.Verify(pub, payload, s.Sig) {
		return "", ErrBadSignature
	}
	return dn, nil
}

// --- TLS configuration (the https of §4.1/§5.2) ---

// tlsCert converts a credential to a tls.Certificate.
func tlsCert(c *Credential) tls.Certificate {
	return tls.Certificate{
		Certificate: [][]byte{c.Cert.Raw},
		PrivateKey:  c.Key,
		Leaf:        c.Cert,
	}
}

// ServerTLS builds the TLS config for a UNICORE server: it presents the
// server certificate and *requires* a client certificate chaining to the CA
// — the mutual authentication of the SSL handshake in §4.1.
func ServerTLS(server *Credential, ca *Authority) *tls.Config {
	return &tls.Config{
		Certificates: []tls.Certificate{tlsCert(server)},
		ClientAuth:   tls.RequireAndVerifyClientCert,
		ClientCAs:    ca.Pool(),
		MinVersion:   tls.VersionTLS13,
	}
}

// ClientTLS builds the TLS config for a user or peer server connecting to a
// gateway: it presents the client certificate and validates the server
// against the CA.
func ClientTLS(client *Credential, ca *Authority) *tls.Config {
	return &tls.Config{
		Certificates: []tls.Certificate{tlsCert(client)},
		RootCAs:      ca.Pool(),
		MinVersion:   tls.VersionTLS13,
	}
}
