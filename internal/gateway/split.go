package gateway

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"

	"unicore/internal/pki"
	"unicore/internal/protocol"
)

// This file reproduces the firewall deployment of §5.2: "the two parts of
// the UNICORE server, the Web server and the NJS, can be run on different
// systems. The Web server has to be installed on the firewall system and the
// NJS on a system inside the firewall. The communication between the two
// components is done via IP socket connection to a site selectable port."
//
// The Front is the Web-server half: it terminates https, authenticates the
// caller's envelope at the firewall, and relays the verified bytes over a
// framed IP socket. The Inner is the NJS-side half: it reads frames off the
// socket and feeds them to the full gateway logic.

// maxFrame bounds one relayed message (envelopes carry inline files).
const maxFrame = maxRequest

// ErrFrameTooLarge reports an oversized frame on the split socket.
var ErrFrameTooLarge = errors.New("gateway: frame exceeds maximum size")

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Inner is the NJS-side half of a split gateway. It owns the full gateway
// logic; the Front relays envelopes to it over the socket.
type Inner struct {
	gw *Gateway

	mu        sync.Mutex
	listeners []net.Listener
	closed    bool
}

// NewInner wraps a gateway as the inside-the-firewall server.
func NewInner(gw *Gateway) *Inner {
	return &Inner{gw: gw}
}

// Serve accepts connections from the Front until the listener closes. Each
// connection carries a sequence of request/reply frames.
func (in *Inner) Serve(l net.Listener) error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		l.Close()
		return errors.New("gateway: inner server closed")
	}
	in.listeners = append(in.listeners, l)
	in.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			in.mu.Lock()
			closed := in.closed
			in.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go in.handleConn(conn)
	}
}

// Close stops every listener.
func (in *Inner) Close() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.closed = true
	for _, l := range in.listeners {
		l.Close()
	}
	in.listeners = nil
}

// HandleConn serves one Front connection: frames in, frames out, until EOF.
// Exported so tests and in-process deployments can drive it over net.Pipe.
func (in *Inner) HandleConn(conn net.Conn) {
	in.handleConn(conn)
}

func (in *Inner) handleConn(conn net.Conn) {
	defer conn.Close()
	for {
		req, err := readFrame(conn)
		if err != nil {
			return // EOF or broken pipe: the Front redials
		}
		if err := writeFrame(conn, in.gw.Handle(req)); err != nil {
			return
		}
	}
}

// Front is the Web-server half of a split gateway, deployed on the firewall
// system. It authenticates callers (the https user authentication happens at
// the firewall) and relays verified envelopes to the Inner over the
// site-selectable port.
type Front struct {
	cred *pki.Credential
	ca   *pki.Authority
	dial func() (net.Conn, error)

	mu   sync.Mutex
	idle []net.Conn // connections to the Inner with no relay in flight
}

// maxIdleInner bounds the idle Inner connections a Front keeps for reuse. A
// burst of concurrent relays past it dials the extra connections and closes
// them when their replies are in.
const maxIdleInner = 8

// NewFront builds the firewall half. dial opens a connection to the Inner's
// socket; TCPDial is the common choice.
func NewFront(cred *pki.Credential, ca *pki.Authority, dial func() (net.Conn, error)) (*Front, error) {
	if cred == nil || cred.Role != pki.RoleServer {
		return nil, errors.New("gateway: front needs a server-role credential")
	}
	if ca == nil {
		return nil, errors.New("gateway: front needs the CA")
	}
	if dial == nil {
		return nil, errors.New("gateway: front needs a dialer")
	}
	return &Front{cred: cred, ca: ca, dial: dial}, nil
}

// TCPDial returns a dialer to the Inner's TCP address.
func TCPDial(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// ServeHTTP implements the firewall-side https endpoint.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != protocol.Endpoint {
		http.NotFound(w, r)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequest+1))
	if err != nil {
		http.Error(w, "reading request", http.StatusBadRequest)
		return
	}
	if len(body) > maxRequest {
		http.Error(w, "request too large", http.StatusRequestEntityTooLarge)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(f.Handle(body))
}

// Handle authenticates the envelope at the firewall and relays it inward.
// Failures are answered locally with sealed error replies — unauthenticated
// traffic never crosses the firewall.
func (f *Front) Handle(data []byte) []byte {
	_, _, _, role, err := protocol.Open(f.ca, data)
	if err != nil {
		return f.sealError("authentication", err)
	}
	if role != pki.RoleUser && role != pki.RoleServer {
		return f.sealError("role", fmt.Errorf("%w: %q", ErrNotPermitted, role))
	}
	reply, err := f.relay(data)
	if err != nil {
		return f.sealError("relay", fmt.Errorf("gateway: relaying inside the firewall: %w", err))
	}
	return reply
}

// relay sends one frame to the Inner and reads its reply, on a connection no
// other relay shares while it does — the Inner answers a connection's frames
// one at a time, so a subscribe it holds delays only its own caller. An idle
// connection may have died with an Inner that restarted; the one retry dials
// afresh.
func (f *Front) relay(data []byte) ([]byte, error) {
	conn := f.takeIdle()
	for attempt := 0; attempt < 2; attempt++ {
		if conn == nil {
			var err error
			if conn, err = f.dial(); err != nil {
				return nil, err
			}
		}
		if err := writeFrame(conn, data); err == nil {
			if reply, err := readFrame(conn); err == nil {
				f.release(conn)
				return reply, nil
			}
		}
		conn.Close()
		conn = nil
	}
	return nil, errors.New("inner connection failed twice")
}

// takeIdle returns an idle connection, or nil when there is none.
func (f *Front) takeIdle() net.Conn {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.idle)
	if n == 0 {
		return nil
	}
	conn := f.idle[n-1]
	f.idle = f.idle[:n-1]
	return conn
}

// release returns a connection whose reply has been read to the idle list, or
// closes it when the list is full.
func (f *Front) release(conn net.Conn) {
	f.mu.Lock()
	keep := len(f.idle) < maxIdleInner
	if keep {
		f.idle = append(f.idle, conn)
	}
	f.mu.Unlock()
	if !keep {
		conn.Close()
	}
}

// Close drops the idle connections.
func (f *Front) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, conn := range f.idle {
		conn.Close()
	}
	f.idle = nil
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
