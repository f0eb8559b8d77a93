package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"unicore"
	"unicore/internal/gateway"
	"unicore/internal/journal"
	"unicore/internal/pki"
	"unicore/internal/protocol"
	"unicore/internal/telemetry"
	"unicore/internal/testbed"
)

const (
	benchUsite = unicore.Usite("BENCH")
	benchVsite = unicore.Vsite("CLUSTER")
	// tlsName is the DNS name in the listener's server certificate. Clients
	// dial 127.0.0.1 and verify the certificate against this name, so no
	// resolver is involved.
	tlsName = "localhost"
	// clients is the number of closed-loop load generators: one per core of
	// the reference machine, each with its own user, session and connections.
	clients = 2
)

// wireCounters are the raw TCP byte and write counts of every connection the
// listener accepted, i.e. what crosses the network underneath TLS.
type wireCounters struct {
	in, out, writes atomic.Uint64
}

type wireSample struct{ in, out, writes uint64 }

func (w *wireCounters) sample() wireSample {
	return wireSample{in: w.in.Load(), out: w.out.Load(), writes: w.writes.Load()}
}

// countingListener wraps the TCP listener below TLS. It also remembers every
// accepted connection so close can end hijacked stream connections, which
// http.Server does not track.
type countingListener struct {
	net.Listener
	wire *wireCounters

	mu    sync.Mutex
	conns map[*countingConn]struct{}
	done  bool
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c, l: l}
	l.mu.Lock()
	if l.done {
		l.mu.Unlock()
		c.Close()
		return nil, net.ErrClosed
	}
	l.conns[cc] = struct{}{}
	l.mu.Unlock()
	return cc, nil
}

func (l *countingListener) Close() error {
	l.mu.Lock()
	l.done = true
	conns := make([]*countingConn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	err := l.Listener.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.wire.in.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.wire.out.Add(uint64(n))
	c.l.wire.writes.Add(1)
	return n, err
}

func (c *countingConn) Close() error {
	c.l.mu.Lock()
	delete(c.l.conns, c)
	c.l.mu.Unlock()
	return c.Conn.Close()
}

// site is one freshly deployed Usite served over mutual TLS on a loopback
// socket, plus the load generator's sessions into it.
type site struct {
	d      *testbed.Deployment
	ts     *testbed.Site
	ln     *countingListener
	url    string
	served chan error

	store    *journal.Store // nil when the workload runs without a journal
	stateDir string

	users []*user
	// runMu serialises Deployment.Run: the virtual clock panics on
	// re-entrant advancement, and both clients drive it in job_cycle.
	runMu sync.Mutex
}

// user is one load-generator client: a certificate, a session, and the
// transports underneath so they can be closed when the round ends.
type user struct {
	idx  int
	cred *unicore.Credential
	sess *unicore.Session
	pc   *protocol.Client
	http *http.Transport
	tt   *tracedTransport
}

// deploySite stands up a single-NJS site. durableDir != "" attaches a journal
// rooted there. rec != nil wraps every client transport for the traced run.
func deploySite(durableDir string, rec *recorder) (*site, error) {
	d, err := unicore.SingleSite(benchUsite, benchVsite, 64)
	if err != nil {
		return nil, err
	}
	s := &site{d: d, ts: d.Sites[benchUsite], served: make(chan error, 1), stateDir: durableDir}
	if durableDir != "" {
		if s.store, err = d.EnableDurability(benchUsite, durableDir, 0); err != nil {
			return nil, err
		}
	}
	tlsCred, err := d.CA.IssueServer("bench-listener", tlsName)
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	s.ln = &countingListener{Listener: tcp, wire: &wireCounters{}, conns: make(map[*countingConn]struct{})}
	s.url = "https://" + tcp.Addr().String()
	go func() { s.served <- gateway.ServeTLS(s.ln, s.ts.Gateway, tlsCred, d.CA) }()

	for i := 0; i < clients; i++ {
		u, err := s.newUser(i, rec)
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.users = append(s.users, u)
	}
	return s, nil
}

func (s *site) newUser(idx int, rec *recorder) (*user, error) {
	cred, err := s.d.NewUser(fmt.Sprintf("Bench User %d", idx), "Bench", fmt.Sprintf("bench%d", idx))
	if err != nil {
		return nil, err
	}
	cfg := pki.ClientTLS(cred, s.d.CA)
	cfg.ServerName = tlsName
	u := &user{idx: idx, cred: cred, http: &http.Transport{TLSClientConfig: cfg}}
	var tr protocol.Transport = protocol.NewHTTPTransport(u.http)
	if rec != nil {
		u.tt = &tracedTransport{base: tr, ct: rec.client(idx, cred.DN())}
		tr = u.tt
	}
	u.pc = protocol.NewClient(tr, cred, s.d.CA, protocol.NewRegistry())
	u.sess, err = unicore.Dial(s.url, unicore.WithClient(u.pc), unicore.WithSite(benchUsite))
	return u, err
}

// scrape merges the site's telemetry into one snapshot: the same figures an
// operator gets from `unicore-status metrics`.
func (s *site) scrape() (telemetry.Snapshot, error) {
	snaps, err := s.d.Metrics(benchUsite)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	return telemetry.Merge("bench", snaps...), nil
}

// close ends every connection, waits for the server loop, closes the journal
// and removes the round's state directory.
func (s *site) close() error {
	var errs []error
	for _, u := range s.users {
		u.pc.Close()
		u.http.CloseIdleConnections()
	}
	if s.ln != nil {
		s.ln.Close()
		<-s.served // the serve error after a deliberate close carries no news
	}
	s.d.Close()
	if s.store != nil {
		errs = append(errs, s.store.Close())
	}
	if s.stateDir != "" {
		errs = append(errs, os.RemoveAll(s.stateDir))
	}
	return errors.Join(errs...)
}

// stateRoot is where per-round journal directories live. Leftovers of a
// killed run are reported and cleared when the next run starts.
type stateRoot struct {
	dir  string
	fs   string // "tmpfs" or "disk"
	next int
}

const stateSubdir = "unicore-bench-state"

func openStateRoot(parent string) (*stateRoot, error) {
	dir := filepath.Join(parent, stateSubdir)
	if _, err := os.Stat(dir); err == nil {
		// A clean exit removes the directory, so one that exists was left by
		// a killed run.
		fmt.Fprintf(os.Stderr, "bench: clearing state left behind in %s\n", dir)
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &stateRoot{dir: dir, fs: fsKind(dir)}, nil
}

func (r *stateRoot) roundDir() (string, error) {
	r.next++
	dir := filepath.Join(r.dir, fmt.Sprintf("round-%04d", r.next))
	return dir, os.MkdirAll(dir, 0o755)
}

func (r *stateRoot) remove() error { return os.RemoveAll(r.dir) }
