package protocol

import (
	"crypto/tls"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"testing"
	"time"

	"unicore/internal/pki"
)

// TestSilentPeersAreClosed: fifty peers that connect and send nothing — no
// TLS handshake, no request line — are all closed by a site's server within
// a few handshake timeouts, over TLS (the gateway) and over plain TCP (the
// NJS behind a firewall front). Without the timeout each would hold a
// server goroutine for as long as it stayed connected.
func TestSilentPeersAreClosed(t *testing.T) {
	rig := newRig(t)
	const handshake = 250 * time.Millisecond
	for name, wrap := range map[string]func(net.Listener) net.Listener{
		"tls":   func(l net.Listener) net.Listener { return tls.NewListener(l, pki.ServerTLS(rig.server, rig.ca)) },
		"plain": func(l net.Listener) net.Listener { return l },
	} {
		t.Run(name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := httpServer(http.NotFoundHandler(), handshake)
			srv.ErrorLog = log.New(io.Discard, "", 0) // fifty handshake timeouts
			go srv.Serve(wrap(l))
			defer srv.Close()

			start := time.Now()
			peers := make([]net.Conn, 50)
			for i := range peers {
				if peers[i], err = net.Dial("tcp", l.Addr().String()); err != nil {
					t.Fatal(err)
				}
				defer peers[i].Close()
			}
			deadline := start.Add(4 * handshake)
			for i, c := range peers {
				c.SetReadDeadline(deadline)
				_, err := io.Copy(io.Discard, c) // the server says nothing before closing
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					t.Fatalf("silent peer %d still held %v after it connected (handshake timeout %v)", i, time.Since(start).Round(time.Millisecond), handshake)
				}
			}
		})
	}
}
