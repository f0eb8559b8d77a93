package gateway

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"

	"unicore/internal/pki"
	"unicore/internal/protocol"
)

// This file reproduces the firewall deployment of §5.2: "the two parts of
// the UNICORE server, the Web server and the NJS, can be run on different
// systems. The Web server has to be installed on the firewall system and the
// NJS on a system inside the firewall. The communication between the two
// components is done via IP socket connection to a site selectable port."
//
// The inner half is the Gateway itself, served plain on that port
// (protocol.NewHTTPServer(gw).Serve(l)). The Front is the Web-server half:
// it terminates https, authenticates every caller at the firewall by the
// signed hello that opens its frame stream — a user's or a peer gateway's —
// and only then splices the stream through, speaking to the inner half the
// protocol its own clients speak.

// Front is the Web-server half of a split gateway, deployed on the firewall
// system: an authenticating proxy in front of the inner gateway.
type Front struct {
	cred  *pki.Credential
	ca    *pki.Authority
	inner string // base URL of the inner gateway
	tr    *protocol.HTTPTransport
	page  http.Handler // the inner gateway's Web page, proxied
}

// NewFront builds the firewall half for the inner gateway listening on
// innerAddr (host:port).
func NewFront(cred *pki.Credential, ca *pki.Authority, innerAddr string) (*Front, error) {
	if cred == nil || cred.Role != pki.RoleServer {
		return nil, errors.New("gateway: front needs a server-role credential")
	}
	if ca == nil {
		return nil, errors.New("gateway: front needs the CA")
	}
	if innerAddr == "" {
		return nil, errors.New("gateway: front needs the inner gateway's address")
	}
	f := &Front{cred: cred, ca: ca, inner: "http://" + innerAddr,
		tr: protocol.NewHTTPTransport(&http.Transport{})}
	page := httputil.NewSingleHostReverseProxy(&url.URL{Scheme: "http", Host: innerAddr})
	page.Transport = f.tr.HTTP
	f.page = page
	return f, nil
}

// ServeHTTP implements the firewall-side https endpoint: the routes of
// Gateway.ServeHTTP, each authenticated here and answered inside.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == protocol.StreamEndpoint:
		if conn, ok := upgradeStream(w, r); ok {
			f.ServeStream(r.Context(), conn)
		}
	case r.Method == http.MethodGet && r.URL.Path == "/":
		f.page.ServeHTTP(w, r)
	default:
		http.NotFound(w, r)
	}
}

// admit authenticates one stream hello at the firewall. A non-nil refusal
// is the sealed error reply: unauthenticated traffic never crosses.
func (f *Front) admit(hello []byte) (refusal []byte) {
	_, _, _, role, err := protocol.Open(f.ca, hello)
	if err != nil {
		return f.sealError("authentication", err)
	}
	if role != pki.RoleUser && role != pki.RoleServer {
		return f.sealError("role", fmt.Errorf("%w: %q", ErrNotPermitted, role))
	}
	return nil
}

// ServeStream implements protocol.StreamServer: verify the stream's hello,
// then splice the connection to a stream of the inner gateway's, which
// verifies the replayed hello in its turn and answers it.
func (f *Front) ServeStream(ctx context.Context, conn net.Conn) {
	protocol.SpliceStream(conn, func(hello []byte) (net.Conn, []byte) {
		if refusal := f.admit(hello); refusal != nil {
			return nil, refusal
		}
		inner, err := f.tr.OpenStream(ctx, f.inner)
		if err != nil {
			return nil, f.relayError(err)
		}
		return inner, nil
	})
}

// Close drops the pooled connections to the inner gateway.
func (f *Front) Close() { f.tr.HTTP.CloseIdleConnections() }

func (f *Front) relayError(err error) []byte {
	return f.sealError("relay", fmt.Errorf("gateway: relaying inside the firewall: %w", err))
}

func (f *Front) sealError(code string, cause error) []byte {
	out, err := protocol.Seal(f.cred, protocol.MsgError, protocol.ErrorReply{
		Code:    code,
		Message: cause.Error(),
	})
	if err != nil {
		return []byte(`{"fatal":"sealing error reply failed"}`)
	}
	return out
}
