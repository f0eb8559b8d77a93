package gateway

import (
	"crypto/tls"
	"net"
	"net/http"

	"unicore/internal/pki"
	"unicore/internal/protocol"
)

// ServeTLS serves a gateway (or split Front) handler on a mutually
// authenticated TLS listener — the https of §4.1: the server presents its
// X.509 certificate, and the client must present one chaining to the CA
// before any request is processed.
//
// ServeTLS blocks until the listener closes. A peer that never completes its
// handshake is dropped after the stream handshake timeout
// (protocol.NewHTTPServer).
func ServeTLS(l net.Listener, handler http.Handler, cred *pki.Credential, ca *pki.Authority) error {
	tl := tls.NewListener(l, pki.ServerTLS(cred, ca))
	err := protocol.NewHTTPServer(handler).Serve(tl)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// ClientTransport builds the protocol transport that presents the client
// credential and validates gateway certificates against the CA — the user
// side of the mutual TLS handshake. Envelope POSTs and v3 stream upgrades
// share the same TLS configuration.
func ClientTransport(cred *pki.Credential, ca *pki.Authority) *protocol.HTTPTransport {
	return protocol.NewHTTPTransport(&http.Transport{TLSClientConfig: pki.ClientTLS(cred, ca)})
}
