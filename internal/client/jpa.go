package client

import (
	"context"
	"fmt"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/protocol"
	"unicore/internal/resources"
)

// JPA is the job preparation agent: it fetches resource pages from the
// sites and validates jobs against them before submission (the "seamless"
// support of §5.4 — the GUI knows what the destination system can do).
// Session.Submit consigns the job.
type JPA struct {
	c       *protocol.Client
	catalog *resources.Catalog
}

// NewJPA wraps a protocol client.
func NewJPA(c *protocol.Client) *JPA {
	return &JPA{c: c, catalog: resources.NewCatalog()}
}

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
