// Package client implements the UNICORE user tier: the Job Preparation
// Agent (JPA) that builds and submits abstract jobs, and the Job Monitor
// Controller (JMC) that tracks status, retrieves output, and controls jobs
// (paper §4.1, §5.7). In the paper both are signed Java applets running in a
// Web browser; here they are a library (Session carries both surfaces) plus
// CLI front ends.
package client

import (
	"errors"
	"fmt"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/resources"
)

// Builder assembles an AbstractJob the way the JPA's GUI does: tasks and
// job groups are added one by one, then wired with sequential dependencies
// optionally annotated with the files to hand over (§5.7: "each dependency
// can be augmented by the names of the files to be transferred from one to
// the other").
//
// Builder methods record errors instead of returning them so call sites read
// like the GUI workflow; Build reports everything at once.
type Builder struct {
	job  *ajo.AbstractJob
	errs []error
	seq  int
}

// NewJob starts a job (or job group) destined for target.
func NewJob(name string, target core.Target) *Builder {
	return &Builder{
		job: &ajo.AbstractJob{
			Header: ajo.Header{ActionID: ajo.NewID("job"), ActionName: name},
			Target: target,
		},
	}
}

// Project sets the user account group carried in the AJO.
func (b *Builder) Project(p string) *Builder {
	b.job.Project = p
	return b
}

// SiteSecurity attaches a site-specific security token (the smart-card/DCE
// material of §4.2).
func (b *Builder) SiteSecurity(key, value string) *Builder {
	if b.job.SiteSecurity == nil {
		b.job.SiteSecurity = make(map[string]string)
	}
	b.job.SiteSecurity[key] = value
	return b
}

func (b *Builder) nextID(prefix string) ajo.ActionID {
	b.seq++
	return ajo.ActionID(fmt.Sprintf("%s-%02d", prefix, b.seq))
}

func (b *Builder) add(a ajo.Action) ajo.ActionID {
	b.job.Actions = append(b.job.Actions, a)
	return a.ID()
}

// Script adds an ExecuteScriptTask — an existing batch application (§5.7).
func (b *Builder) Script(name, script string, req resources.Request) ajo.ActionID {
	return b.add(&ajo.ScriptTask{
		TaskBase: ajo.TaskBase{
			Header:    ajo.Header{ActionID: b.nextID("script"), ActionName: name},
			Resources: req,
		},
		Script: script,
	})
}

// Execute adds an ExecuteTask running an executable from the Uspace.
func (b *Builder) Execute(name, executable string, args []string, req resources.Request) ajo.ActionID {
	return b.add(&ajo.ExecuteTask{
		TaskBase: ajo.TaskBase{
			Header:    ajo.Header{ActionID: b.nextID("exec"), ActionName: name},
			Resources: req,
		},
		Executable: executable,
		Arguments:  args,
	})
}

// Command adds a UserTask with a raw command line.
func (b *Builder) Command(name, command string, req resources.Request) ajo.ActionID {
	return b.add(&ajo.UserTask{
		TaskBase: ajo.TaskBase{
			Header:    ajo.Header{ActionID: b.nextID("cmd"), ActionName: name},
			Resources: req,
		},
		Command: command,
	})
}

// Compile adds a CompileTask (F90 in the 1999 prototype).
func (b *Builder) Compile(name, language string, sources []string, output string, req resources.Request) ajo.ActionID {
	return b.add(&ajo.CompileTask{
		TaskBase: ajo.TaskBase{
			Header:    ajo.Header{ActionID: b.nextID("compile"), ActionName: name},
			Resources: req,
		},
		Language: language,
		Sources:  sources,
		Output:   output,
	})
}

// Link adds a LinkTask producing an executable from objects and libraries.
func (b *Builder) Link(name string, objects, libraries []string, output string, req resources.Request) ajo.ActionID {
	return b.add(&ajo.LinkTask{
		TaskBase: ajo.TaskBase{
			Header:    ajo.Header{ActionID: b.nextID("link"), ActionName: name},
			Resources: req,
		},
		Objects:   objects,
		Libraries: libraries,
		Output:    output,
	})
}

// ImportBytes stages workstation data (carried inline in the AJO, §5.6)
// into the job's Uspace.
func (b *Builder) ImportBytes(name string, data []byte, to string) ajo.ActionID {
	return b.add(&ajo.ImportTask{
		Header: ajo.Header{ActionID: b.nextID("import"), ActionName: name},
		Source: ajo.ImportSource{Inline: data},
		To:     to,
	})
}

// ImportStaged stages a committed staged upload (the transfer handle
// returned by Session.Upload) into the job's Uspace — the bulk path: the
// bytes travelled ahead of the AJO through the chunked staging engine, so the
// consign envelope stays small.
func (b *Builder) ImportStaged(name, handle, to string) ajo.ActionID {
	return b.add(&ajo.ImportTask{
		Header: ajo.Header{ActionID: b.nextID("import"), ActionName: name},
		Source: ajo.ImportSource{Staged: handle},
		To:     to,
	})
}

// ImportXspace stages a file already in the Vsite's Xspace into the Uspace.
func (b *Builder) ImportXspace(name, xspacePath, to string) ajo.ActionID {
	return b.add(&ajo.ImportTask{
		Header: ajo.Header{ActionID: b.nextID("import"), ActionName: name},
		Source: ajo.ImportSource{XspacePath: xspacePath},
		To:     to,
	})
}

// Export copies a Uspace result to permanent Xspace storage.
func (b *Builder) Export(name, from, toXspace string) ajo.ActionID {
	return b.add(&ajo.ExportTask{
		Header:   ajo.Header{ActionID: b.nextID("export"), ActionName: name},
		From:     from,
		ToXspace: toXspace,
	})
}

// Transfer pulls files from a sibling action's Uspace (a sub-job, possibly
// at another Usite) into this job's Uspace.
func (b *Builder) Transfer(name string, fromAction ajo.ActionID, files ...string) ajo.ActionID {
	return b.add(&ajo.TransferTask{
		Header:     ajo.Header{ActionID: b.nextID("transfer"), ActionName: name},
		FromAction: fromAction,
		Files:      files,
	})
}

// SubJob nests another builder's job as a job group, typically destined for
// a different Vsite or Usite. The nested builder must not be reused.
func (b *Builder) SubJob(sub *Builder) ajo.ActionID {
	if sub == b {
		b.errs = append(b.errs, errors.New("client: job cannot nest itself"))
		return ""
	}
	b.errs = append(b.errs, sub.errs...)
	return b.add(sub.job)
}

// After declares that `after` runs only once `before` finished
// successfully; files names the data sets UNICORE guarantees to hand over.
func (b *Builder) After(before, after ajo.ActionID, files ...string) *Builder {
	b.job.Dependencies = append(b.job.Dependencies, ajo.Dependency{
		Before: before,
		After:  after,
		Files:  files,
	})
	return b
}

// Chain wires the given actions sequentially.
func (b *Builder) Chain(ids ...ajo.ActionID) *Builder {
	for i := 1; i < len(ids); i++ {
		b.After(ids[i-1], ids[i])
	}
	return b
}

// Build validates and returns the job.
func (b *Builder) Build() (*ajo.AbstractJob, error) {
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	if err := b.job.Validate(); err != nil {
		return nil, err
	}
	return b.job, nil
}
