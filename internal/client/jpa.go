package client

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/protocol"
	"unicore/internal/resources"
)

// JPA is the job preparation agent: it fetches resource pages from the
// sites, validates jobs against them before submission (the "seamless"
// support of §5.4 — the GUI knows what the destination system can do), and
// consigns AJOs.
type JPA struct {
	c       *protocol.Client
	catalog *resources.Catalog
}

// NewJPA wraps a protocol client.
func NewJPA(c *protocol.Client) *JPA {
	return &JPA{c: c, catalog: resources.NewCatalog()}
}

// DN returns the user identity behind this JPA.
func (j *JPA) DN() core.DN { return j.c.DN() }

// Catalog exposes the resource pages fetched so far.
func (j *JPA) Catalog() *resources.Catalog { return j.catalog }

// FetchResources retrieves the Usite's resource pages (ASN.1, §5.4), adds
// them to the catalog, and returns them.
func (j *JPA) FetchResources(usite core.Usite) ([]*resources.Page, error) {
	var reply protocol.ResourcesReply
	if err := protocol.Do(context.Background(), j.c, usite, protocol.OpResources, protocol.ResourcesRequest{}, &reply); err != nil {
		return nil, err
	}
	pages := make([]*resources.Page, 0, len(reply.PagesDER))
	for _, der := range reply.PagesDER {
		p, err := resources.UnmarshalASN1(der)
		if err != nil {
			return nil, fmt.Errorf("client: decoding resource page from %s: %w", usite, err)
		}
		pages = append(pages, p)
		j.catalog.Add(p)
	}
	return pages, nil
}

// Validate checks a job (recursively) against the fetched resource pages:
// every target must be known, every task's resources must fit the page, and
// compile tasks need the language's compiler on the destination system.
func (j *JPA) Validate(job *ajo.AbstractJob) error {
	page, ok := j.catalog.Get(job.Target)
	if !ok {
		return fmt.Errorf("client: no resource page for %s (fetch it first)", job.Target)
	}
	for _, a := range job.Actions {
		if sub, isSub := a.(*ajo.AbstractJob); isSub {
			if err := j.Validate(sub); err != nil {
				return fmt.Errorf("client: job group %s: %w", sub.ID(), err)
			}
			continue
		}
		if req, isTask := ajo.TaskResources(a); isTask {
			if err := page.Check(req); err != nil {
				return fmt.Errorf("client: task %s at %s: %w", a.ID(), job.Target, err)
			}
		}
		if c, isCompile := a.(*ajo.CompileTask); isCompile {
			if !page.HasSoftware(resources.KindCompiler, c.Language, "") {
				return fmt.Errorf("client: task %s: no %s compiler at %s", c.ID(), c.Language, job.Target)
			}
		}
	}
	return nil
}

// Submit validates and consigns a job, returning the UNICORE job ID assigned
// by the destination NJS. The AJO's user DN is stamped with the caller's
// certificate identity before sealing.
func (j *JPA) Submit(job *ajo.AbstractJob) (core.JobID, error) {
	return j.submitContext(context.Background(), job)
}

// submitContext is Submit under a context (Session.Submit's engine).
func (j *JPA) submitContext(ctx context.Context, job *ajo.AbstractJob) (core.JobID, error) {
	if err := job.Validate(); err != nil {
		return "", err
	}
	job.UserDN = j.c.DN()
	raw, err := ajo.Marshal(job)
	if err != nil {
		return "", err
	}
	var reply protocol.ConsignReply
	err = protocol.Do(ctx, j.c, job.Target.Usite, protocol.OpConsign, protocol.ConsignRequest{
		ConsignID: newConsignID(),
		AJO:       raw,
	}, &reply)
	if err != nil {
		return "", err
	}
	if !reply.Accepted {
		return "", fmt.Errorf("client: %s refused the job: %s", job.Target.Usite, reply.Reason)
	}
	return reply.Job, nil
}

// consignIDReader is swapped by tests to simulate crypto/rand failure.
var consignIDReader = rand.Read

// consignIDFallback counts entropy-free tokens minted by this process.
var consignIDFallback atomic.Uint64

// newConsignID mints a random idempotency token for one submission attempt;
// retries of the same submission reuse it inside protocol.Client. If
// crypto/rand fails (the token only deduplicates retries, so aborting the
// submission would be worse), the fallback token is still unique per
// submission: a process-local atomic counter plus a wall-clock stamp. A
// constant fallback here would make two distinct submissions share an
// idempotency token, silently deduplicating the second as a "retry".
func newConsignID() string {
	var b [12]byte
	if _, err := consignIDReader(b[:]); err != nil {
		n := consignIDFallback.Add(1)
		return fmt.Sprintf("consign-%d-%d", time.Now().UnixNano(), n)
	}
	return hex.EncodeToString(b[:])
}
