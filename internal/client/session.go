package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/events"
	"unicore/internal/protocol"
	"unicore/internal/staging"
	"unicore/internal/telemetry"
)

// JobEvent is one server-push job lifecycle notification, exactly as the
// server logged it (package events defines the shape). Watch delivers these;
// Await consumes them internally.
type JobEvent = events.Event

// DefaultLongPoll is the default server-side hold per Watch/Await subscribe
// round. It is real (wall-clock) time: under a virtual-clock testbed the
// round returns as soon as the clock driver appends events, long before the
// hold expires.
const DefaultLongPoll = 30 * time.Second

// Session is the client handle: one user, one Usite, one context-aware API.
// It unifies the paper's JPA (job preparation, §5.4) and JMC (job monitoring
// and control, §5.7) behind a single surface, and replaces interval polling
// with the server-push event stream — Await and Watch complete a job with
// O(1) subscribe round trips however long it runs.
//
// Every method takes a context.Context; cancellation propagates through
// protocol.Client into the transport, so a cancelled Await releases the
// server-side long-poll immediately. A Session is safe for concurrent use.
type Session struct {
	c     *protocol.Client
	usite core.Usite
	jpa   *JPA

	// LongPoll is the server-side hold requested per subscribe round of
	// Watch/Await (default DefaultLongPoll). Set it before first use.
	LongPoll time.Duration

	// Transfer tunes the chunked transfer engines under Upload, Download,
	// DownloadTo, and FetchFile: chunk size, in-flight window, chunk retries
	// (zero value = package staging defaults). Set it before first use.
	Transfer staging.Options

	// traceMu guards traces, the jobID→trace index Submit fills so a
	// submitted job's distributed trace can be retrieved later (Trace).
	traceMu sync.Mutex
	traces  map[core.JobID]string
}

// NewSession opens a session for one Usite over a protocol client (the same
// client a JPA would use — unicore.Dial is the facade form).
func NewSession(c *protocol.Client, usite core.Usite) *Session {
	return &Session{c: c, usite: usite, jpa: NewJPA(c), LongPoll: DefaultLongPoll}
}

// Usite returns the site this session talks to.
func (s *Session) Usite() core.Usite { return s.usite }

// DN returns the user identity behind this session.
func (s *Session) DN() core.DN { return s.c.DN() }

// JPA returns the session's job preparation agent (resource pages,
// validation) for workflows the unified surface does not cover.
func (s *Session) JPA() *JPA { return s.jpa }

// Submit validates and consigns a job at this session's Usite. Each Submit
// runs under a distributed trace: unless the caller already put one in ctx
// (telemetry.WithTrace), a fresh trace ID is minted and carried in the
// consign frame's header, so every server-side hop of this admission — gateway
// dispatch, pool routing, NJS admission, journal sync — records a span under
// it. Trace returns the ID after the job is admitted.
func (s *Session) Submit(ctx context.Context, job *ajo.AbstractJob) (core.JobID, error) {
	if job.Target.Usite != s.usite {
		return "", fmt.Errorf("client: job targets %s, session is bound to %s", job.Target.Usite, s.usite)
	}
	trace := telemetry.TraceFrom(ctx)
	if trace == "" {
		trace = telemetry.NewTraceID()
		ctx = telemetry.WithTrace(ctx, trace)
	}
	id, err := s.jpa.submitContext(ctx, job)
	if err == nil {
		s.traceMu.Lock()
		if s.traces == nil {
			s.traces = make(map[core.JobID]string)
		}
		s.traces[id] = trace
		s.traceMu.Unlock()
	}
	return id, err
}

// Trace returns the distributed trace ID a Submit through this session ran
// under, and whether the job was submitted here.
func (s *Session) Trace(job core.JobID) (string, bool) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	t, ok := s.traces[job]
	return t, ok
}

// Metrics scrapes the live telemetry of the session's Usite: the gateway's
// own registry plus the server tier's, per origin. With perReplica set the
// reply keeps one snapshot per replica instead of the site-wide merge; with
// spans set the per-request trace spans ride along.
func (s *Session) Metrics(ctx context.Context, perReplica, spans bool) ([]telemetry.Snapshot, error) {
	var reply protocol.MetricsReply
	req := protocol.MetricsRequest{PerReplica: perReplica, Spans: spans}
	if err := s.c.Call(ctx, s.usite, protocol.MsgMetrics, req, &reply); err != nil {
		return nil, err
	}
	return reply.Snapshots, nil
}

// Status polls the compact summary of one job.
func (s *Session) Status(ctx context.Context, job core.JobID) (ajo.Summary, error) {
	return pollStatus(ctx, s.c, s.usite, job)
}

// Outcome retrieves the full outcome tree of one job.
func (s *Session) Outcome(ctx context.Context, job core.JobID) (*ajo.Outcome, error) {
	return fetchOutcome(ctx, s.c, s.usite, job)
}

// List returns the caller's jobs at the session's Usite, newest first.
func (s *Session) List(ctx context.Context) ([]protocol.JobInfo, error) {
	return listJobs(ctx, s.c, s.usite)
}

// Abort cancels a job and everything in flight for it.
func (s *Session) Abort(ctx context.Context, job core.JobID) error {
	return controlJob(ctx, s.c, s.usite, job, ajo.OpAbort)
}

// Hold pauses dispatching of a job's not-yet-started actions.
func (s *Session) Hold(ctx context.Context, job core.JobID) error {
	return controlJob(ctx, s.c, s.usite, job, ajo.OpHold)
}

// Resume releases a held job.
func (s *Session) Resume(ctx context.Context, job core.JobID) error {
	return controlJob(ctx, s.c, s.usite, job, ajo.OpResume)
}

// FetchFile downloads a whole file from the job's Uspace into memory. For
// large results prefer Download, which streams without buffering the file.
func (s *Session) FetchFile(ctx context.Context, job core.JobID, file string) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := s.Download(ctx, job, file, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Download streams a file from the job's Uspace to w through the windowed
// parallel transfer engine (package staging): s.Transfer.Window ranged
// fetches stay in flight, bytes arrive at w strictly in order with no
// whole-file buffering, and the whole-file checksum is verified
// incrementally. Chunk-level retries ride out replica failover mid-transfer.
// On failure the returned progress resumes the download via ResumeDownload.
func (s *Session) Download(ctx context.Context, job core.JobID, file string, w io.Writer) (staging.Progress, error) {
	return staging.Download(ctx, fetchSource(s.c, s.usite, job, file), w, s.Transfer)
}

// ResumeDownload continues a failed Download from its returned progress
// (against the same writer): nothing already delivered is refetched, and the
// whole-file checksum still covers every byte.
func (s *Session) ResumeDownload(ctx context.Context, job core.JobID, file string, w io.Writer, p staging.Progress) (staging.Progress, error) {
	return staging.Resume(ctx, fetchSource(s.c, s.usite, job, file), w, p, s.Transfer)
}

// DownloadTo streams a file from the job's Uspace into a local file
// (created or truncated), returning the byte count.
func (s *Session) DownloadTo(ctx context.Context, job core.JobID, file, localPath string) (int64, error) {
	f, err := os.Create(localPath)
	if err != nil {
		return 0, err
	}
	p, derr := s.Download(ctx, job, file, f)
	cerr := f.Close()
	if derr != nil {
		return p.Offset, derr
	}
	return p.Offset, cerr
}

// PutOpen begins a staged upload at the session's Usite (part of the
// staging.Putter surface; most callers want Upload).
func (s *Session) PutOpen(ctx context.Context, req protocol.PutOpenRequest) (protocol.PutOpenReply, error) {
	var reply protocol.PutOpenReply
	err := s.c.Call(ctx, s.usite, protocol.MsgPutOpen, req, &reply)
	return reply, err
}

// PutChunk delivers one chunk of a staged upload (idempotent re-send safe).
func (s *Session) PutChunk(ctx context.Context, req protocol.PutChunkRequest) (protocol.PutChunkReply, error) {
	var reply protocol.PutChunkReply
	err := s.c.Call(ctx, s.usite, protocol.MsgPutChunk, req, &reply)
	return reply, err
}

// PutCommit seals a staged upload after the server verified its CRC.
func (s *Session) PutCommit(ctx context.Context, req protocol.PutCommitRequest) (protocol.PutCommitReply, error) {
	var reply protocol.PutCommitReply
	err := s.c.Call(ctx, s.usite, protocol.MsgPutCommit, req, &reply)
	return reply, err
}

// Session implements the staging upload surface.
var _ staging.Putter = (*Session)(nil)

// Upload streams r into the spool area of a Vsite at this session's Usite
// and returns the committed transfer handle — the value to reference from an
// ImportTask (Builder.ImportStaged / ajo.ImportSource.Staged) so a bulk
// input travels in CRC-checked chunks ahead of the AJO instead of inline in
// the consign.
func (s *Session) Upload(ctx context.Context, vsite core.Vsite, name string, r io.Reader) (string, error) {
	handle, _, err := staging.Upload(ctx, s, vsite, name, r, s.Transfer)
	return handle, err
}

// Events performs one raw subscription fetch: the buffered events past the
// request's cursor, long-polled server-side for up to req.WaitMs. Most
// callers want Watch or Await instead.
func (s *Session) Events(ctx context.Context, req protocol.SubscribeRequest) (protocol.EventsReply, error) {
	var reply protocol.EventsReply
	if err := s.c.Call(ctx, s.usite, protocol.MsgSubscribe, req, &reply); err != nil {
		return protocol.EventsReply{}, err
	}
	return reply, nil
}

// longPollMs returns the per-round server hold in milliseconds.
func (s *Session) longPollMs() int64 {
	lp := s.LongPoll
	if lp <= 0 {
		lp = DefaultLongPoll
	}
	return lp.Milliseconds()
}

// Await blocks until the job is terminal and returns its final summary,
// consuming the server-push event stream: each round is one long-polled
// subscribe that the server holds until events arrive, so a job completes in
// O(1) round trips regardless of how long it runs. A lost reply is recovered
// by re-subscribing at the same cursor (no gaps, no duplicates); cancelling
// ctx aborts the in-flight round immediately.
func (s *Session) Await(ctx context.Context, job core.JobID) (ajo.Summary, error) {
	cursor := uint64(0)
	for {
		if err := ctx.Err(); err != nil {
			return ajo.Summary{}, err
		}
		reply, err := s.Events(ctx, protocol.SubscribeRequest{
			Job: job, Cursor: cursor, WaitMs: s.longPollMs(),
		})
		if err != nil {
			return ajo.Summary{}, err
		}
		for _, ev := range reply.Events {
			if ev.Terminal {
				return s.Status(ctx, job)
			}
		}
		if reply.Cursor > cursor {
			cursor = reply.Cursor
		}
	}
}

// ErrWatchGap reports that a subscription cursor fell below the server's
// bounded event log — events were evicted before the watcher consumed them,
// so a gapless stream can no longer be delivered from that cursor. Resume
// with Session.Events at an explicit cursor to read the retained window.
var ErrWatchGap = errors.New("client: events evicted before the watch cursor; stream would be incomplete")

// Watch subscribes to one job's lifecycle events and delivers them in order
// on the returned channel — the server-push replacement for polling the JMC
// status display. The first fetch runs synchronously, so an unknown job, an
// authorization failure, or an already-evicted stream head (ErrWatchGap)
// surfaces as an error instead of a silently closed channel.
//
// The watch rides the persistent stream: one subscription frame, then
// server-pushed event batches with no per-batch round trip. A subscription
// that cannot be opened or ends early (the stream died, the consumer fell
// behind) is re-opened at the cursor — the handover loses and duplicates
// nothing.
//
// The channel is closed after the job's terminal event has been delivered.
// A closure whose last delivered event is not terminal means the stream
// ended early: ctx was cancelled, events were evicted past the cursor, or
// the subscription failed watchMaxFailures times in a row. Consumers that
// must distinguish completion from truncation check the last event's
// Terminal flag.
func (s *Session) Watch(ctx context.Context, job core.JobID) (<-chan JobEvent, error) {
	first, err := s.Events(ctx, protocol.SubscribeRequest{Job: job})
	if err != nil {
		return nil, err
	}
	if first.Gap {
		return nil, fmt.Errorf("%w (job %s)", ErrWatchGap, job)
	}
	out := make(chan JobEvent, defaultWatchBuffer)
	go func() {
		defer close(out)
		cursor, fails := uint64(0), 0
		deliver := func(reply protocol.EventsReply) (done bool) {
			fails = 0
			for _, ev := range reply.Events {
				select {
				case out <- ev:
				case <-ctx.Done():
					return true
				}
				if ev.Terminal {
					return true
				}
			}
			if reply.Cursor > cursor {
				cursor = reply.Cursor
			}
			return false
		}
		if deliver(first) {
			return
		}
		// Transient failures (a replica failing over, a stream lost in
		// transit) are backed off and the subscription re-opened at the same
		// cursor, until watchMaxFailures in a row have delivered nothing.
		for ; fails <= watchMaxFailures; fails++ {
			select {
			case <-time.After(watchRetryBackoff * time.Duration(fails)):
			case <-ctx.Done():
				return
			}
			if s.watchPush(ctx, job, cursor, deliver) {
				return
			}
		}
	}()
	return out, nil
}

// watchPush runs one push subscription of a Watch from cursor, delivering
// batches as the server emits them. It returns true when the watch is
// finished (terminal event delivered, ctx cancelled, or the stream reported a
// gap) and false when the subscription could not be opened or ended early;
// deliver has advanced the watch's cursor, so the next one resumes exactly
// where this one left off.
func (s *Session) watchPush(ctx context.Context, job core.JobID, cursor uint64, deliver func(protocol.EventsReply) bool) (done bool) {
	ch, stop, err := s.c.SubscribeStream(ctx, s.usite, protocol.SubscribeRequest{
		Job: job, Cursor: cursor, WaitMs: s.longPollMs(),
	})
	if err != nil {
		return false
	}
	defer stop()
	for {
		select {
		case reply, ok := <-ch:
			if !ok {
				return false
			}
			if reply.Gap {
				return true // fell behind the bounded log: truncation
			}
			if deliver(reply) {
				return true
			}
		case <-ctx.Done():
			return true
		}
	}
}

// defaultWatchBuffer decouples Watch delivery from slow consumers for small
// bursts (a coalesced batch) without unbounded buffering.
const defaultWatchBuffer = 16

// watchMaxFailures bounds consecutive failed subscriptions before a Watch
// gives up; watchRetryBackoff spaces the retries (real time — the failures
// being ridden out are transport- and failover-level).
const (
	watchMaxFailures  = 5
	watchRetryBackoff = 200 * time.Millisecond
)

// listJobs fetches the caller's jobs at a Usite, newest first.
func listJobs(ctx context.Context, c *protocol.Client, usite core.Usite) ([]protocol.JobInfo, error) {
	var reply protocol.ListReply
	if err := c.Call(ctx, usite, protocol.MsgList, protocol.ListRequest{}, &reply); err != nil {
		return nil, err
	}
	return reply.Jobs, nil
}

// pollStatus fetches the compact summary of one job.
func pollStatus(ctx context.Context, c *protocol.Client, usite core.Usite, job core.JobID) (ajo.Summary, error) {
	var reply protocol.PollReply
	if err := c.Call(ctx, usite, protocol.MsgPoll, protocol.PollRequest{Job: job}, &reply); err != nil {
		return ajo.Summary{}, err
	}
	if !reply.Found {
		return ajo.Summary{}, fmt.Errorf("client: no job %s at %s", job, usite)
	}
	return reply.Summary, nil
}

// fetchOutcome retrieves and decodes the full outcome tree of one job.
func fetchOutcome(ctx context.Context, c *protocol.Client, usite core.Usite, job core.JobID) (*ajo.Outcome, error) {
	var reply protocol.OutcomeReply
	if err := c.Call(ctx, usite, protocol.MsgOutcome, protocol.OutcomeRequest{Job: job}, &reply); err != nil {
		return nil, err
	}
	if !reply.Found {
		return nil, fmt.Errorf("client: no job %s at %s", job, usite)
	}
	return ajo.UnmarshalOutcome(reply.Outcome)
}

// controlJob sends one job-control operation (abort/hold/resume).
func controlJob(ctx context.Context, c *protocol.Client, usite core.Usite, job core.JobID, op ajo.ControlOp) error {
	var reply protocol.ControlReply
	if err := c.Call(ctx, usite, protocol.MsgControl, protocol.ControlRequest{Job: job, Op: op}, &reply); err != nil {
		return err
	}
	if !reply.OK {
		return fmt.Errorf("client: %s %s: %s", op, job, reply.Reason)
	}
	return nil
}

// fetchSource builds the staging engine's chunk source over the owner fetch
// endpoint (MsgFetch): one ranged, idempotent read per call, each reply
// carrying the file's size and whole-file CRC, read into the engine's buffer.
func fetchSource(c *protocol.Client, usite core.Usite, job core.JobID, file string) staging.Source {
	return func(ctx context.Context, offset, limit int64, buf []byte) (staging.Chunk, error) {
		reply := protocol.TransferReply{Data: buf[:0]}
		err := c.Call(ctx, usite, protocol.MsgFetch, protocol.FetchRequest{
			Job: job, File: file, Offset: offset, Limit: limit,
		}, &reply)
		if err != nil {
			return staging.Chunk{}, err
		}
		if !reply.Found {
			return staging.Chunk{}, fmt.Errorf("%w: job %s at %s has no file %q", staging.ErrNotFound, job, usite, file)
		}
		return staging.Chunk{Data: reply.Data, Size: reply.Size, CRC: reply.CRC}, nil
	}
}

// TaskOutput extracts a task's standard output and error from an outcome
// tree ("the standard output and error files can be listed and/or saved for
// tasks", §5.7).
func TaskOutput(root *ajo.Outcome, id ajo.ActionID) (stdout, stderr []byte, err error) {
	o, ok := root.Find(id)
	if !ok {
		return nil, nil, fmt.Errorf("client: no outcome for action %s", id)
	}
	return o.Stdout, o.Stderr, nil
}

// Display renders the JMC's job display: one line per action with the
// status icon colour, indented by job-group depth — the text equivalent of
// the coloured-icon tree of §5.7.
func Display(root *ajo.Outcome) string {
	var b strings.Builder
	renderOutcome(&b, root, 0)
	return b.String()
}

func renderOutcome(b *strings.Builder, o *ajo.Outcome, depth int) {
	icon := statusIcon(o.Status)
	fmt.Fprintf(b, "%s%s [%s/%s] %s", strings.Repeat("  ", depth), icon, o.Status, o.Status.Colour(), o.Name)
	if o.Reason != "" {
		fmt.Fprintf(b, " (%s)", o.Reason)
	}
	b.WriteByte('\n')
	children := append([]*ajo.Outcome(nil), o.Children...)
	sort.SliceStable(children, func(i, j int) bool { return children[i].Action < children[j].Action })
	for _, c := range children {
		renderOutcome(b, c, depth+1)
	}
}

func statusIcon(s ajo.Status) string {
	switch s {
	case ajo.StatusSuccessful:
		return "●"
	case ajo.StatusFailed, ajo.StatusNotDone, ajo.StatusAborted:
		return "✖"
	case ajo.StatusRunning, ajo.StatusQueued:
		return "◐"
	default:
		return "○"
	}
}
