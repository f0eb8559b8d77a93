// Package fixture exercises the lockorder analyzer with a miniature of the
// NJS registry/job shape: job records with a mu + children pair, a registry
// guarded by regMu, and a peer protocol.Client.
package fixture

import (
	"context"

	"sync"

	"unicore/internal/protocol"
)

// job mirrors njs.unicoreJob: per-job mutex plus a children map.
type job struct {
	mu       sync.Mutex
	children map[string]string
	done     bool
}

// reg mirrors the NJS registry: regMu guards the jobs map.
type reg struct {
	regMu sync.RWMutex
	jobs  map[string]*job
}

// job is the registry lookup, as in the NJS.
func (r *reg) job(id string) (*job, bool) {
	r.regMu.RLock()
	defer r.regMu.RUnlock()
	j, ok := r.jobs[id]
	return j, ok
}

// BadRegOrder locks a job while holding the registry lock — regMu must be
// innermost.
func BadRegOrder(r *reg, id string) {
	r.regMu.RLock()
	j := r.jobs[id]
	j.mu.Lock() // want "while the registry lock is held"
	j.done = true
	j.mu.Unlock()
	r.regMu.RUnlock()
}

// GoodRegOrder releases the registry lock before touching the job.
func GoodRegOrder(r *reg, id string) {
	r.regMu.RLock()
	j := r.jobs[id]
	r.regMu.RUnlock()
	j.mu.Lock()
	j.done = true
	j.mu.Unlock()
}

// BadNested locks two unrelated jobs — nothing proves b descends from a.
func BadNested(a, b *job) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want "not provably ancestor→descendant"
	defer b.mu.Unlock()
}

// SuppressedNested is the reviewed version of the same shape: the caller
// guarantees the order, and the directive records why.
func SuppressedNested(a, b *job) {
	a.mu.Lock()
	defer a.mu.Unlock()
	//lint:allow lockorder fixture: caller passes b as a child of a
	b.mu.Lock()
	defer b.mu.Unlock()
}

// GoodNestedRange locks children discovered under the parent lock — the
// allowed ancestor→descendant direction.
func GoodNestedRange(r *reg, p *job) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cid := range p.children {
		if c, ok := r.job(cid); ok {
			c.mu.Lock() // ancestor→descendant: derived from p.children
			c.done = true
			c.mu.Unlock()
		}
	}
}

// GoodNestedLookup chains the derivation through an intermediate ID.
func GoodNestedLookup(r *reg, p *job, aid string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cid := p.children[aid]
	c, ok := r.job(cid)
	if !ok {
		return
	}
	c.mu.Lock()
	c.done = true
	c.mu.Unlock()
}

// BadPeerCall performs a network round trip while holding a job lock.
func BadPeerCall(cl *protocol.Client, j *job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	_ = cl.Call(context.Background(), "site", protocol.MsgPoll, nil, nil) // want "peer call through protocol.Client while job lock"
}

// BadPeerSubscribe dials (or waits on) the peer's stream to open a push
// subscription while holding a job lock.
func BadPeerSubscribe(cl *protocol.Client, j *job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, _, _ = cl.SubscribeStream(context.Background(), "site", protocol.SubscribeRequest{}) // want "peer call through protocol.Client while job lock"
}

// GoodPeerCallBranch unlocks on the early-exit path before calling the peer;
// after the branch the lock is still held, so the second call is flagged —
// exactly the consignRemote shape, with the bug reintroduced.
func GoodPeerCallBranch(cl *protocol.Client, j *job) {
	j.mu.Lock()
	if j.done {
		j.mu.Unlock()
		_ = cl.Call(context.Background(), "site", protocol.MsgPoll, nil, nil) // released first: fine
		return
	}
	_ = cl.Call(context.Background(), "site", protocol.MsgPoll, nil, nil) // want "peer call through protocol.Client while job lock"
	j.mu.Unlock()
}

// GoodLiteral runs its peer call on a timer goroutine with no lock state
// inherited from the enclosing function.
func GoodLiteral(cl *protocol.Client, j *job, after func(func())) {
	j.mu.Lock()
	defer j.mu.Unlock()
	after(func() {
		_ = cl.Call(context.Background(), "site", protocol.MsgPoll, nil, nil) // fresh goroutine: fine
	})
}
