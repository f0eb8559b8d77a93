// Package protocol implements the UNICORE protocols (paper §5.3): the
// high-level asynchronous client–server protocol whose requests are AJOs and
// whose replies are acks, summaries, and outcomes; and the low-level
// security protocol, here a signed envelope carried over https.
//
// "JPA/JMC act as client while NJS (resp. the gateway) acts as both client
// and server depending on the partner" — the same envelope format is used by
// users talking to a gateway and by an NJS consigning a sub-job to a peer
// site. "It is an asynchronous protocol ... by minimizing the length of time
// that an interaction takes the asynchronous protocol protects against any
// unreliability of the underlying communication mechanism"; robustness.go
// quantifies that claim (experiment E6).
package protocol

import (
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/events"
	"unicore/internal/pki"
	"unicore/internal/telemetry"
)

// parseCert decodes the signer certificate embedded in a signature.
func parseCert(der []byte) (*x509.Certificate, error) {
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("%w: bad signer certificate: %v", ErrBadEnvelope, err)
	}
	return cert, nil
}

// Version is the one wire protocol version this build speaks: signed
// envelopes over POST for every message kind, plus the persistent multiplexed
// frame stream (see frame.go) that every client op rides — a long-lived
// authenticated connection in a compact binary codec, staged chunks as raw
// frames integrity-checked by their CRCs and the whole-file CRC checked at
// commit, and event batches pushed server-side. An envelope or stream hello at any
// other version is refused with a server-signed ErrBadVersion error.
//
// Version 7 drops the staging requests' Owner field: a relayed call names
// the user it acts for once, in its stream's hello (HelloRequest.ActingFor).
// Version 6 front-codes a list reply's job IDs and names, each row writing
// only the suffix that differs from the row before (bin.Codec.StrAfter).
// Version 5 walks an outcome reply's tree inline in its frame body, with no
// length prefix or format tag in front of it (ajo.WalkOutcome); version 4
// changed the bodies of an events batch and a list reply, so repeated event
// strings travel as references and instants as the offset from the one
// before (walkEvents). Any change to a frame body's bytes bumps it;
// TestFrameBodiesArePinned holds the encodings of this version.
const Version = 7

// Errors reported when opening envelopes.
var (
	ErrBadEnvelope = errors.New("protocol: malformed envelope")
	ErrBadVersion  = errors.New("protocol: unsupported protocol version")
)

// MsgType discriminates envelope payloads.
type MsgType string

// Request and reply message types. Which reply answers which request, and
// how the pair rides the frame stream, is the operation table in ops.go.
const (
	MsgConsign        MsgType = "consign"
	MsgConsignReply   MsgType = "consign-reply"
	MsgPoll           MsgType = "poll"
	MsgPollReply      MsgType = "poll-reply"
	MsgOutcome        MsgType = "outcome"
	MsgOutcomeReply   MsgType = "outcome-reply"
	MsgList           MsgType = "list"
	MsgListReply      MsgType = "list-reply"
	MsgControl        MsgType = "control"
	MsgControlReply   MsgType = "control-reply"
	MsgResources      MsgType = "resources"
	MsgResourcesReply MsgType = "resources-reply"
	MsgTransfer       MsgType = "transfer"
	MsgTransferReply  MsgType = "transfer-reply"
	MsgApplet         MsgType = "applet"
	MsgAppletReply    MsgType = "applet-reply"
	MsgLoad           MsgType = "load"
	MsgLoadReply      MsgType = "load-reply"
	MsgFetch          MsgType = "fetch"
	MsgFetchReply     MsgType = "fetch-reply"
	// MsgSubscribe fetches a cursor-resumable batch of job lifecycle events,
	// long-polling server-side until events are available.
	MsgSubscribe MsgType = "subscribe"
	// MsgEventsReply answers a subscription with a coalesced event batch.
	MsgEventsReply MsgType = "events-reply"
	// MsgPutOpen begins a staged upload into a Vsite's spool area, returning
	// the transfer handle the chunks are sent under.
	MsgPutOpen MsgType = "put-open"
	// MsgPutOpenReply acknowledges a staged-upload open with its handle.
	MsgPutOpenReply MsgType = "put-open-reply"
	// MsgPutChunk delivers one CRC-checked chunk of a staged upload. Chunk
	// sends are idempotent: a re-send of an already-received index is
	// acknowledged without rewriting.
	MsgPutChunk MsgType = "put-chunk"
	// MsgPutChunkReply acknowledges a chunk with the contiguous watermark.
	MsgPutChunkReply MsgType = "put-chunk-reply"
	// MsgPutCommit seals a staged upload after verifying the whole-file CRC.
	MsgPutCommit MsgType = "put-commit"
	// MsgPutCommitReply acknowledges the seal with the recorded size and CRC.
	MsgPutCommitReply MsgType = "put-commit-reply"
	// MsgMetrics scrapes a point-in-time telemetry snapshot from a live
	// server: per-origin metric values plus recent trace spans,
	// merged across pool replicas by the Router.
	MsgMetrics MsgType = "metrics"
	// MsgMetricsReply carries the scraped snapshots, one per origin.
	MsgMetricsReply MsgType = "metrics-reply"
	// MsgFedAdvertise exchanges federation advertisements between peered
	// gateways: the sender pushes every fresh advertisement it
	// holds — its own plus relayed peers' — and the receiver answers with its
	// view, so one gossip round trip converges both peer tables.
	MsgFedAdvertise MsgType = "fed-advertise"
	// MsgFedAdvertiseReply answers a gossip exchange with the receiver's
	// advertisement set.
	MsgFedAdvertiseReply MsgType = "fed-advertise-reply"
	// MsgHello authenticates a protocol v3 stream: the first frame of every
	// persistent connection carries a signed Hello envelope binding the
	// caller's DN and role to the connection, so the frames that follow
	// need no per-message signature.
	MsgHello MsgType = "hello"
	// MsgHelloReply accepts a v3 stream; it is server-signed and the client
	// verifies it before sending any frame.
	MsgHelloReply MsgType = "hello-reply"
	MsgError      MsgType = "error"
)

// Envelope is the signed wire unit. The signature covers the payload bytes;
// the embedded certificate identifies the sender (user or server) to the
// receiver, which verifies it against the CA.
type Envelope struct {
	Version int     `json:"version"`
	Type    MsgType `json:"type"`
	// Trace is the request's distributed trace ID (optional). It rides the
	// envelope header, outside the signed payload, so relays can read it
	// without re-verifying.
	Trace     string          `json:"trace,omitempty"`
	Payload   json.RawMessage `json:"payload"`
	Signature pki.Signature   `json:"signature"`
}

// Seal marshals payload, signs it with cred, and returns the encoded
// envelope.
func Seal(cred *pki.Credential, t MsgType, payload any) ([]byte, error) {
	return SealTraced(cred, "", t, payload)
}

// SealTraced is Seal plus a distributed trace ID in the envelope header.
func SealTraced(cred *pki.Credential, trace string, t MsgType, payload any) ([]byte, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("protocol: marshal %s payload: %w", t, err)
	}
	sig, err := cred.Sign(body)
	if err != nil {
		return nil, err
	}
	return json.Marshal(Envelope{Version: Version, Type: t, Trace: trace, Payload: body, Signature: sig})
}

// Open decodes an envelope, verifies the payload signature against the CA,
// and returns the message type, raw payload, and signer identity. Any signer
// role chains through the same CA; callers enforce role expectations
// (gateways accept users and servers, clients expect servers).
func Open(ca *pki.Authority, data []byte) (MsgType, json.RawMessage, core.DN, pki.Role, error) {
	o, err := OpenTraced(ca, data)
	return o.Type, o.Payload, o.From, o.Role, err
}

// Opened is the result of opening an envelope with OpenTraced: the verified
// payload and signer identity, and the optional trace ID from the header.
type Opened struct {
	// Type is the message kind.
	Type MsgType
	// Payload is the verified raw payload.
	Payload json.RawMessage
	// From is the verified signer DN.
	From core.DN
	// Role is the signer's certificate role (user or server).
	Role pki.Role
	// Cert is the signer's verified certificate.
	Cert *x509.Certificate
	// Trace is the distributed trace ID, "" when absent.
	Trace string
}

// OpenTraced is Open returning a structured result that also carries the
// envelope's trace ID. An envelope at any version but Version is refused with
// ErrBadVersion before its signature is looked at. On verification failures
// past the version check, the trace (if any) is still returned with the error
// so servers can attribute the failure to a trace.
func OpenTraced(ca *pki.Authority, data []byte) (Opened, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return Opened{}, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if env.Version != Version {
		return Opened{}, fmt.Errorf("%w: %d", ErrBadVersion, env.Version)
	}
	o := Opened{Trace: env.Trace}
	dn, err := ca.VerifySignature(env.Payload, env.Signature, "")
	if err != nil {
		return o, err
	}
	cert, err := parseCert(env.Signature.CertDER)
	if err != nil {
		return o, err
	}
	o.Type, o.Payload, o.From, o.Role, o.Cert = env.Type, env.Payload, dn, pki.CertRole(cert), cert
	return o, nil
}

// --- high-level protocol messages ---

// ConsignRequest submits an AJO. ConsignID is chosen by the client and makes
// consignment idempotent under retries.
type ConsignRequest struct {
	ConsignID string `json:"consignID"`
	AJO       []byte `json:"ajo"` // output of ajo.Marshal: raw in a frame, base64 in an envelope
}

// ConsignReply acknowledges (or refuses) a consignment. The protocol is
// asynchronous: acceptance only means the NJS took responsibility — on a
// durable NJS, that the admission record reached the journal. A refused
// reply that still carries a Job means the job was admitted but its
// durability could not be confirmed (journal failure or site shutdown
// mid-consign): clients should reconcile by that ID or retry with the same
// consign ID rather than resubmitting as new work.
type ConsignReply struct {
	Job      core.JobID `json:"job,omitempty"`
	Accepted bool       `json:"accepted"`
	Reason   string     `json:"reason,omitempty"`
}

// PollRequest asks for the compact status of a job.
type PollRequest struct {
	Job core.JobID `json:"job"`
}

// PollReply returns the job summary.
type PollReply struct {
	Found   bool        `json:"found"`
	Summary ajo.Summary `json:"summary"`
}

// OutcomeRequest fetches the full outcome tree of a job.
type OutcomeRequest struct {
	Job core.JobID `json:"job"`
}

// OutcomeReply carries the outcome tree: walked inline in a frame body
// (ajo.WalkOutcome), a JSON tree in an envelope. A server's reply may hold
// the NJS's shared terminal tree, which is only read on its way out.
type OutcomeReply struct {
	Found   bool         `json:"found"`
	Outcome *ajo.Outcome `json:"outcome,omitempty"`
}

// ListRequest asks for the caller's jobs at this Usite.
type ListRequest struct{}

// JobInfo is one row of a ListReply.
type JobInfo struct {
	Job       core.JobID `json:"job"`
	Name      string     `json:"name"`
	Status    ajo.Status `json:"status"`
	Submitted time.Time  `json:"submitted"`
}

// ListReply lists the caller's jobs.
type ListReply struct {
	Jobs []JobInfo `json:"jobs"`
}

// ControlRequest aborts, holds, or resumes a job.
type ControlRequest struct {
	Job core.JobID    `json:"job"`
	Op  ajo.ControlOp `json:"op"`
}

// ControlReply reports the control outcome.
type ControlReply struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// ResourcesRequest fetches resource pages ("" selects every Vsite).
type ResourcesRequest struct {
	Vsite core.Vsite `json:"vsite,omitempty"`
}

// ResourcesReply returns DER-encoded resource pages (§5.4: ASN.1).
type ResourcesReply struct {
	PagesDER [][]byte `json:"pagesDER"`
}

// TransferRequest fetches a file from a job's Uspace — the NJS–NJS side of
// §5.6 Uspace-to-Uspace transfers. Only servers may issue it.
type TransferRequest struct {
	Job  core.JobID `json:"job"`
	File string     `json:"file"`
	// Offset/Limit support chunked transfers of huge files.
	Offset int64 `json:"offset,omitempty"`
	Limit  int64 `json:"limit,omitempty"`
}

// TransferReply carries file bytes.
type TransferReply struct {
	Found bool   `json:"found"`
	Data  []byte `json:"data,omitempty"`
	Size  int64  `json:"size"` // total file size
	CRC   uint64 `json:"crc"`  // whole-file checksum
}

// FetchRequest retrieves a file from the caller's own job Uspace back to
// the workstation — §5.6: "the current implementation sends data back to
// the workstation only on user request while the user is working with the
// JMC". Unlike TransferRequest it is owner-authorised, not server-only.
type FetchRequest struct {
	Job    core.JobID `json:"job"`
	File   string     `json:"file"`
	Offset int64      `json:"offset,omitempty"`
	Limit  int64      `json:"limit,omitempty"`
}

// AppletRequest fetches a signed applet (JPA or JMC payload stand-in).
type AppletRequest struct {
	Name string `json:"name"`
}

// AppletReply carries the applet payload and its software-publisher
// signature — the reproduction of Netscape object signing (§5.2).
type AppletReply struct {
	Name      string        `json:"name"`
	Version   string        `json:"version"`
	Payload   []byte        `json:"payload"`
	Signature pki.Signature `json:"signature"`
}

// LoadRequest asks a Usite for its current batch occupancy — the "load
// information" the §6 resource broker needs to pick an execution server.
type LoadRequest struct{}

// VsiteLoad is the occupancy of one Vsite. Replicas/Healthy expose the
// NJS replicas behind the Vsite: a single-NJS site reports 1/1, a pooled
// site reports how many NJS replicas serve the Vsite and how many currently
// pass their health checks. A reader treats 0 healthy replicas, 0 replicas
// included, as a drained Vsite that can take no new job.
type VsiteLoad struct {
	Load     float64 `json:"load"`               // fraction of batch slots in use, [0,1]
	Pending  int     `json:"pending"`            // jobs waiting in the queues
	Inflight int     `json:"inflight,omitempty"` // consigns being admitted right now (live gauge)
	Replicas int     `json:"replicas,omitempty"` // NJS replicas serving this Vsite
	Healthy  int     `json:"healthy,omitempty"`  // replicas currently healthy
}

// LoadReply reports per-Vsite and overall load at a Usite.
type LoadReply struct {
	Overall float64              `json:"overall"`
	Vsites  map[string]VsiteLoad `json:"vsites"`
}

// JobEvent is one job lifecycle notification — the wire shape is
// exactly the server's log record (package events).
type JobEvent = events.Event

// SubscribeRequest fetches a batch of job lifecycle events past a cursor.
// Job selects one job's stream (resumed at the per-job Cursor);
// an empty Job selects all of the caller's jobs at the Usite (resumed at the
// per-replica Origins cursors). WaitMs asks the server to long-poll: hold the
// request up to that many real milliseconds until events are available, then
// reply with everything buffered (server-side coalescing). Subscription reads
// are idempotent — a lost reply is recovered by re-issuing the request with
// the same cursor, with no gaps and no duplicates.
type SubscribeRequest struct {
	Job     core.JobID        `json:"job,omitempty"`
	Cursor  uint64            `json:"cursor,omitempty"`
	Origins map[string]uint64 `json:"origins,omitempty"`
	Max     int               `json:"max,omitempty"`
	WaitMs  int64             `json:"waitMs,omitempty"`
}

// EventsReply answers a subscription with a coalesced, cursor-ordered event
// batch. Cursor (job streams) and Origins (user streams) are the positions to
// resume at; Gap reports that events below the retained window were evicted
// before the subscriber caught up.
type EventsReply struct {
	Events  []JobEvent        `json:"events,omitempty"`
	Cursor  uint64            `json:"cursor,omitempty"`
	Origins map[string]uint64 `json:"origins,omitempty"`
	Gap     bool              `json:"gap,omitempty"`
}

// PutOpenRequest begins a staged upload into the spool area of a Vsite.
// Huge job inputs travel ahead of the AJO through this chunked
// path instead of riding inline inside one giant signed consign envelope
// (§5.6 "data are transferred in chunks, on user request"): the later
// ImportTask references the committed upload by its handle
// (ajo.ImportSource.Staged).
type PutOpenRequest struct {
	// Vsite is the execution system whose spool receives the upload — the
	// Vsite the staged ImportTask will later be consigned to.
	Vsite core.Vsite `json:"vsite"`
	// Name labels the upload (conventionally the Uspace destination path).
	Name string `json:"name,omitempty"`
	// Size declares the expected total size when known (informational; the
	// commit seals whatever arrived). Zero means unknown.
	Size int64 `json:"size,omitempty"`
	// ChunkSize is the fixed chunk grid the sender will use. The server may
	// clamp it; the reply carries the effective value.
	ChunkSize int64 `json:"chunkSize,omitempty"`
	// Window is how many chunks beyond the contiguous watermark the sender
	// wants in flight. The server may clamp it.
	Window int `json:"window,omitempty"`
}

// PutOpenReply acknowledges a staged-upload open.
type PutOpenReply struct {
	// Handle identifies the transfer in every subsequent chunk/commit call
	// and in the consigning AJO's ImportSource.Staged reference.
	Handle string `json:"handle"`
	// ChunkSize and Window are the effective (possibly clamped) values the
	// sender must respect.
	ChunkSize int64 `json:"chunkSize"`
	Window    int   `json:"window"`
}

// PutChunkRequest delivers chunk Index (0-based, on the ChunkSize grid) of a
// staged upload. Chunks are idempotent: re-sending an already-received index
// (a lost reply) is acknowledged without rewriting, and a chunk more than the
// negotiated window beyond the contiguous watermark is rejected.
type PutChunkRequest struct {
	Handle string `json:"handle"`
	Index  int64  `json:"index"`
	Data   []byte `json:"data"`
	// CRC is the crc64 (ECMA) of Data; the server verifies it before writing.
	CRC uint64 `json:"crc"`
}

// PutChunkReply acknowledges a chunk. Received is the contiguous watermark —
// the number of chunks received without holes from index 0 — which is where a
// sender resumes after losing replies.
type PutChunkReply struct {
	Received int64 `json:"received"`
}

// PutCommitRequest seals a staged upload: every chunk must have arrived and
// the assembled content must match CRC (crc64 ECMA of the whole file).
type PutCommitRequest struct {
	Handle string `json:"handle"`
	CRC    uint64 `json:"crc"`
}

// PutCommitReply acknowledges the seal. A committed upload survives crash
// recovery (the spool is journaled) and is consumed by the ImportTask that
// references its handle; uploads never consigned are garbage-collected.
type PutCommitReply struct {
	Size   int64  `json:"size"`
	CRC    uint64 `json:"crc"`
	Chunks int64  `json:"chunks"`
}

// MetricsRequest scrapes a live telemetry snapshot from a Usite.
// PerReplica asks for the unmerged per-origin breakdown in
// addition to the aggregate; Spans asks to include recent trace spans.
type MetricsRequest struct {
	PerReplica bool `json:"perReplica,omitempty"`
	Spans      bool `json:"spans,omitempty"`
}

// MetricsReply carries the scraped snapshots. The first snapshot is the
// site aggregate (origin "usite/<name>"); when PerReplica was requested the
// remaining entries are the unmerged per-component snapshots (gateway,
// pool, and each NJS replica).
type MetricsReply struct {
	Snapshots []telemetry.Snapshot `json:"snapshots"`
}

// FedAd is one gateway's federation advertisement: the resource pages and
// live load it fronts, plus a charge-back summary, stamped with a
// monotonically increasing epoch so receivers can prefer newer views. Ads
// are relayed between peers with Hops incremented at every relay; receivers
// keep the lowest-hop freshest copy per origin and judge staleness by their
// own receipt clock, never the sender's Stamp (clocks are not assumed
// synchronized across administrative domains).
type FedAd struct {
	Origin core.Usite `json:"origin"`
	URL    string     `json:"url"`   // gateway base URL for direct forwarding
	Epoch  uint64     `json:"epoch"` // origin-local, bumps every self-advertisement
	Stamp  time.Time  `json:"stamp"` // origin clock at advertisement time (informational)
	Hops   int        `json:"hops"`  // relay distance from the origin (0 = self)
	// PagesDER carries the origin's resource catalog, one ASN.1 DER page per
	// Vsite (resources.Page.MarshalASN1) — the same encoding the paper's
	// Network Supervisor exports.
	PagesDER [][]byte             `json:"pagesDER,omitempty"`
	Loads    map[string]VsiteLoad `json:"loads,omitempty"`
	// Jobs and Charge summarize the origin's accounting ledger, the
	// charge-back weight for federated placement.
	Jobs   int     `json:"jobs,omitempty"`
	Charge float64 `json:"charge,omitempty"`
}

// FedAdvertiseRequest is a gossip push: the sender's full fresh view, its
// own ad first. The receiver ingests and answers with its view.
type FedAdvertiseRequest struct {
	From core.Usite `json:"from"`
	Ads  []FedAd    `json:"ads"`
}

// FedAdvertiseReply carries the receiver's advertisement set back.
type FedAdvertiseReply struct {
	Ads []FedAd `json:"ads"`
}

// HelloRequest opens a protocol v3 stream (MsgHello): it rides inside a
// signed envelope as the first frame of every persistent connection. Usite
// names the site the stream is addressed to, so a Hello captured for one
// gateway cannot be replayed against another; Nonce makes every handshake
// envelope distinct. ActingFor, in a server-signed hello only, names the user
// every call on the stream is made for: the server binds the stream to that
// user as a user-role caller, so a peer gateway's relay is judged exactly as
// the user's own call would be. A user-signed hello that names anyone is
// refused (ErrActingFor).
type HelloRequest struct {
	Usite     core.Usite `json:"usite"`
	Nonce     string     `json:"nonce"`
	ActingFor core.DN    `json:"acting_for,omitempty"`
}

// HelloReply accepts a v3 stream (MsgHelloReply, server-signed). Nonce
// echoes the request's nonce, binding the acceptance to this handshake.
type HelloReply struct {
	Usite core.Usite `json:"usite"`
	Nonce string     `json:"nonce"`
}

// ErrorReply is the failure payload for any request.
type ErrorReply struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error renders the reply as an error.
func (e ErrorReply) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Is makes errors.Is(err, ErrBadVersion) hold for a server's refusal of an
// envelope or stream hello sealed at a version it does not speak.
func (e ErrorReply) Is(target error) bool {
	return target == ErrBadVersion && strings.Contains(e.Message, ErrBadVersion.Error())
}
