package pki

import (
	"crypto/ed25519"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file persists credentials and authorities as PEM so the cmd/ tools
// can run real multi-process deployments: the CA issues to files, gateways
// and users load their credentials from files (the paper's §5.2 "secure
// transfer of the user certificates" is out of scope — files stand in for
// the DFN-PCA distribution procedure).

// PEM block types.
const (
	pemCert  = "CERTIFICATE"
	pemKey   = "PRIVATE KEY"
	pemState = "UNICORE CA STATE"
)

// EncodePEM renders the credential as a certificate block followed by a
// PKCS#8 private-key block.
func (c *Credential) EncodePEM() ([]byte, error) {
	keyDER, err := x509.MarshalPKCS8PrivateKey(c.Key)
	if err != nil {
		return nil, fmt.Errorf("pki: encoding key: %w", err)
	}
	var out []byte
	out = append(out, pem.EncodeToMemory(&pem.Block{Type: pemCert, Bytes: c.Cert.Raw})...)
	out = append(out, pem.EncodeToMemory(&pem.Block{Type: pemKey, Bytes: keyDER})...)
	return out, nil
}

// DecodeCredentialPEM parses a credential written by EncodePEM. The role is
// recovered from the certificate subject.
func DecodeCredentialPEM(data []byte) (*Credential, error) {
	var cert *x509.Certificate
	var key ed25519.PrivateKey
	for {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			break
		}
		switch block.Type {
		case pemCert:
			c, err := x509.ParseCertificate(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("pki: parsing certificate: %w", err)
			}
			cert = c
		case pemKey:
			k, err := x509.ParsePKCS8PrivateKey(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("pki: parsing key: %w", err)
			}
			ed, ok := k.(ed25519.PrivateKey)
			if !ok {
				return nil, fmt.Errorf("pki: key is %T, want Ed25519", k)
			}
			key = ed
		}
	}
	if cert == nil || key == nil {
		return nil, errors.New("pki: credential PEM needs a certificate and a private key")
	}
	return &Credential{Role: CertRole(cert), Cert: cert, Key: key}, nil
}

// EncodePEM renders the authority: its certificate, key, and issuance state
// (serial counter and revocation list) in a state block's headers.
func (a *Authority) EncodePEM() ([]byte, error) {
	keyDER, err := x509.MarshalPKCS8PrivateKey(a.key)
	if err != nil {
		return nil, fmt.Errorf("pki: encoding CA key: %w", err)
	}
	a.mu.Lock()
	serial := a.serial
	revoked := make([]string, 0, len(a.revoked))
	for s, r := range a.revoked {
		if r {
			revoked = append(revoked, s)
		}
	}
	a.mu.Unlock()
	sort.Strings(revoked)

	var out []byte
	out = append(out, pem.EncodeToMemory(&pem.Block{Type: pemCert, Bytes: a.cert.Raw})...)
	out = append(out, pem.EncodeToMemory(&pem.Block{Type: pemKey, Bytes: keyDER})...)
	out = append(out, pem.EncodeToMemory(&pem.Block{
		Type: pemState,
		Headers: map[string]string{
			"name":    a.cert.Subject.CommonName,
			"serial":  strconv.FormatInt(serial, 10),
			"revoked": strings.Join(revoked, " "),
		},
	})...)
	return out, nil
}

// DecodeAuthorityPEM restores an authority written by EncodePEM.
func DecodeAuthorityPEM(data []byte) (*Authority, error) {
	var cert *x509.Certificate
	var key ed25519.PrivateKey
	state := map[string]string{}
	for {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			break
		}
		switch block.Type {
		case pemCert:
			c, err := x509.ParseCertificate(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("pki: parsing CA certificate: %w", err)
			}
			cert = c
		case pemKey:
			k, err := x509.ParsePKCS8PrivateKey(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("pki: parsing CA key: %w", err)
			}
			ed, ok := k.(ed25519.PrivateKey)
			if !ok {
				return nil, fmt.Errorf("pki: CA key is %T, want Ed25519", k)
			}
			key = ed
		case pemState:
			state = block.Headers
		}
	}
	if cert == nil || key == nil {
		return nil, errors.New("pki: authority PEM needs a certificate and a private key")
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert)
	a := &Authority{
		cert:    cert,
		key:     key,
		pool:    pool,
		serial:  1,
		revoked: map[string]bool{},
		ttl:     100 * 365 * 24 * 3600e9,
	}
	if s := state["serial"]; s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pki: bad CA serial %q: %w", s, err)
		}
		a.serial = v
	}
	if rv := strings.TrimSpace(state["revoked"]); rv != "" {
		for _, s := range strings.Fields(rv) {
			a.revoked[s] = true
		}
	}
	return a, nil
}
