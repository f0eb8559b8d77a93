package njs

import (
	"fmt"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/codine"
	"unicore/internal/core"
	"unicore/internal/incarnation"
	"unicore/internal/telemetry"
)

// startActionLocked dispatches ready action i by class.
func (n *NJS) startActionLocked(uj *unicoreJob, i int) {
	uj.acts[i].out.Started = n.clock.Now()
	switch t := uj.job.Actions[i].(type) {
	case *ajo.ImportTask:
		n.startImportLocked(uj, i, t)
	case *ajo.ExportTask:
		n.startExportLocked(uj, i, t)
	case *ajo.TransferTask:
		n.startTransferLocked(uj, i, t)
	case *ajo.AbstractJob:
		n.startSubJobLocked(uj, i, t)
	default:
		if t.Kind().IsExecutable() {
			n.startBatchLocked(uj, i, t)
			return
		}
		n.completeActionLocked(uj, i, ajo.StatusFailed,
			fmt.Sprintf("unsupported action class %s", t.Kind()))
	}
}

// deferComplete finishes an action after a virtual delay, modelling the
// staging time of file operations. The callback locks only the job it
// advances.
func (n *NJS) deferComplete(uj *unicoreJob, i int, d time.Duration, status ajo.Status, reason string) {
	jobID := uj.id
	n.clock.AfterFunc(d, func() {
		if n.dead.Load() {
			return
		}
		j, ok := n.job(jobID)
		if !ok {
			return
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		n.completeActionLocked(j, i, status, reason)
		n.finalizeIfDoneLocked(j)
	})
}

// startImportLocked stages data into the job's Uspace (§5.6: from the user's
// workstation — carried inside the AJO or pre-staged into the Vsite's spool
// by the chunked upload protocol — or from the Vsite Xspace).
func (n *NJS) startImportLocked(uj *unicoreJob, i int, t *ajo.ImportTask) {
	uj.acts[i].out.Status = ajo.StatusRunning
	var size int64
	var err error
	switch {
	case t.Source.XspacePath != "":
		err = uj.vsite.Space.ImportXspace(uj.id, t.To, t.Source.XspacePath)
		if err == nil {
			if fi, statErr := uj.vsite.Space.StatJobFile(uj.id, t.To); statErr == nil {
				size = fi.Size
			}
		}
	case t.Source.Staged != "":
		// Consume the committed staged upload from this Vsite's spool. The
		// entry stays (marked consumed) until the next sweep, so a crash
		// recovery that re-dispatches this import finds the bytes again.
		start := time.Now()
		var data []byte
		data, _, err = n.spools[uj.vsite.Name].Consume(uj.owner, t.Source.Staged)
		if err == nil {
			size = int64(len(data))
			err = uj.vsite.Space.WriteJobFile(uj.id, t.To, data)
		}
		if err == nil {
			n.tel.Histogram("staging_import_seconds", telemetry.ScaleSeconds).ObserveSince(start)
			n.tel.Histogram("staging_import_bytes", telemetry.ScaleBytes).Observe(float64(size))
		}
	default:
		size = int64(len(t.Source.Inline))
		err = uj.vsite.Space.ImportInline(uj.id, t.To, t.Source.Inline)
	}
	if err != nil {
		n.deferComplete(uj, i, fileOpLatency, ajo.StatusFailed, fmt.Sprintf("import: %v", err))
		return
	}
	n.deferComplete(uj, i, localCopyDelay(size), ajo.StatusSuccessful, "")
}

// startExportLocked copies a result to permanent Xspace storage (§5.6).
func (n *NJS) startExportLocked(uj *unicoreJob, i int, t *ajo.ExportTask) {
	o := &uj.acts[i].out
	o.Status = ajo.StatusRunning
	fi, err := uj.vsite.Space.Export(uj.id, t.From, t.ToXspace)
	if err != nil {
		n.deferComplete(uj, i, fileOpLatency, ajo.StatusFailed, fmt.Sprintf("export: %v", err))
		return
	}
	o.Files = append(o.Files, ajo.FileRecord{Path: fi.Path, Size: fi.Size, CRC: fi.CRC})
	n.deferComplete(uj, i, localCopyDelay(fi.Size), ajo.StatusSuccessful, "")
}

// startTransferLocked pulls files from a sibling action's Uspace into this
// job's Uspace — the §5.6 Uspace-to-Uspace transfer. Local sources are a
// copy; remote sources go through the peer gateway over https.
func (n *NJS) startTransferLocked(uj *unicoreJob, i int, t *ajo.TransferTask) {
	o := &uj.acts[i].out
	o.Status = ajo.StatusRunning

	from, _ := uj.graph.Index(string(t.FromAction)) // Check holds it to a sibling
	var total int64
	copyOne := func(file string) (int64, error) {
		data, err := n.readActionFileLocked(uj, from, file)
		if err != nil {
			return 0, err
		}
		if err := uj.vsite.Space.WriteJobFile(uj.id, file, data); err != nil {
			return 0, err
		}
		return int64(len(data)), nil
	}
	for _, f := range t.Files {
		nbytes, err := copyOne(f)
		if err != nil {
			n.deferComplete(uj, i, fileOpLatency, ajo.StatusFailed,
				fmt.Sprintf("transfer %s from %s: %v", f, t.FromAction, err))
			return
		}
		o.Files = append(o.Files, ajo.FileRecord{Path: f, Size: nbytes})
		total += nbytes
	}
	delay := localCopyDelay(total)
	if uj.acts[from].remote != nil {
		delay = httpsTransferDelay(total)
	}
	n.deferComplete(uj, i, delay, ajo.StatusSuccessful, "")
}

// readActionFileLocked reads a file from the Uspace that backs action i:
// the enclosing job's own Uspace for plain tasks, a child job's Uspace for
// locally expanded sub-jobs, or a remote fetch for sub-jobs at peer Usites.
// A child's vsite is immutable and its Space is thread-safe, so the child's
// lock is not needed.
func (n *NJS) readActionFileLocked(uj *unicoreJob, i int, file string) ([]byte, error) {
	if ref := uj.acts[i].remote; ref != nil {
		return n.fetchRemoteFile(ref.usite, ref.job, file)
	}
	if childID := uj.acts[i].child; childID != "" {
		child, ok := n.job(childID)
		if !ok {
			return nil, fmt.Errorf("%w: child %s", ErrUnknownJob, childID)
		}
		return child.vsite.Space.ReadJobFile(childID, file)
	}
	return uj.vsite.Space.ReadJobFile(uj.id, file)
}

// startBatchLocked incarnates an executable task and submits it to the
// Vsite's batch subsystem.
func (n *NJS) startBatchLocked(uj *unicoreJob, i int, a ajo.Action) {
	inc, err := incarnation.Incarnate(a, uj.login, uj.vsite.Table)
	if err != nil {
		n.completeActionLocked(uj, i, ajo.StatusFailed, fmt.Sprintf("incarnation: %v", err))
		return
	}
	spec := inc.Spec
	spec.Script = inc.Script
	spec.FS = uj.vsite.Space.FS()
	spec.WorkDir = uj.jobDir
	jobID := uj.id
	// Completion is delivered through the clock: Cancel (and, on saturated
	// machines, Submit) can reach a terminal state synchronously while this
	// NJS still holds its lock, so a direct callback would self-deadlock.
	spec.Done = func(_ codine.JobID, res codine.Result) {
		n.clock.AfterFunc(0, func() { n.onBatchDone(jobID, i, res) })
	}
	bid, err := uj.vsite.RMS.Submit(spec)
	if err != nil {
		n.completeActionLocked(uj, i, ajo.StatusFailed, fmt.Sprintf("batch submit: %v", err))
		return
	}
	s := &uj.acts[i]
	s.out.Status = ajo.StatusQueued
	s.batch = bid
	n.recordActionStart(uj, &s.out)
	n.regMu.Lock()
	n.batchIndex[batchKey{uj.vsite.Name, bid}] = actionRef{uj.id, i}
	n.regMu.Unlock()
}

// onBatchStarted flips an outcome to RUNNING when the batch system
// dispatches it (drives the JMC's yellow icons).
func (n *NJS) onBatchStarted(vsite core.Vsite, bid codine.JobID) {
	if n.dead.Load() {
		return
	}
	n.regMu.RLock()
	ref, ok := n.batchIndex[batchKey{vsite, bid}]
	n.regMu.RUnlock()
	if !ok {
		return
	}
	uj, ok := n.job(ref.job)
	if !ok {
		return
	}
	uj.mu.Lock()
	defer uj.mu.Unlock()
	if o := &uj.acts[ref.action].out; !o.Status.Terminal() {
		o.Status = ajo.StatusRunning
		n.recordActionStart(uj, o)
	}
}

// onBatchDone collects a finished batch job: "collect the standard output
// and error files from the batch jobs belonging to one UNICORE job and make
// them available to the user" (§5.5).
func (n *NJS) onBatchDone(jobID core.JobID, i int, res codine.Result) {
	if n.dead.Load() {
		return
	}
	uj, ok := n.job(jobID)
	if !ok {
		return
	}
	uj.mu.Lock()
	defer uj.mu.Unlock()
	s := &uj.acts[i]
	if s.batch != 0 {
		n.regMu.Lock()
		delete(n.batchIndex, batchKey{uj.vsite.Name, s.batch})
		n.regMu.Unlock()
		s.batch = 0
	}
	o := &s.out
	if o.Status.Terminal() {
		return
	}
	o.Stdout = []byte(res.Stdout)
	o.Stderr = []byte(res.Stderr)
	o.ExitCode = res.ExitCode
	var status ajo.Status
	reason := res.Reason
	switch res.State {
	case codine.StateDone:
		status = ajo.StatusSuccessful
	case codine.StateCancelled:
		status = ajo.StatusAborted
	default:
		status = ajo.StatusFailed
	}
	n.completeActionLocked(uj, i, status, reason)
	n.finalizeIfDoneLocked(uj)
}

// propagateFilesLocked implements the §5.7 dependency guarantee: "each
// dependency can be augmented by the names of the files to be transferred
// from one to the other. UNICORE then guarantees that the specified data
// sets created by the predecessor are available to the successor."
func (n *NJS) propagateFilesLocked(uj *unicoreJob, i int) error {
	before := uj.acts[i].out.Action
	for _, dep := range uj.job.Dependencies {
		if dep.Before != before || len(dep.Files) == 0 {
			continue
		}
		after, ok := uj.graph.Index(string(dep.After))
		if !ok {
			continue
		}
		for _, file := range dep.Files {
			data, err := n.readActionFileLocked(uj, i, file)
			if err != nil {
				return fmt.Errorf("file %q from %s: %w", file, before, err)
			}
			if _, isSub := uj.job.Actions[after].(*ajo.AbstractJob); isSub {
				// The successor is a job group: stage the file into it as
				// an injected import when it is consigned.
				s := &uj.acts[after]
				s.injections = append(s.injections, injection{name: file, data: data})
				n.recordInject(uj, dep.After, file, data)
				continue
			}
			// The successor is a plain task sharing this job's Uspace:
			// materialise the file there (no-op when already present with
			// identical content).
			if existing, err := uj.vsite.Space.ReadJobFile(uj.id, file); err == nil && string(existing) == string(data) {
				continue
			}
			if err := uj.vsite.Space.WriteJobFile(uj.id, file, data); err != nil {
				return fmt.Errorf("staging %q for %s: %w", file, dep.After, err)
			}
		}
	}
	return nil
}
