package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Every client op rides a persistent multiplexed byte stream per (client,
// site) pair instead of one POST per envelope. The stream carries frames:
//
//	u32 BE  length   — covers kind + id + payload, at most MaxFramePayload+9
//	u8      kind     — frame discriminator (Frame* constants)
//	u64 BE  id       — correlation ID; replies carry the request's id
//	[]byte  payload  — kind-specific body
//
// The first exchange on every stream is a signed Hello envelope answered by
// a server-signed HelloOK: the connection is authenticated once and the
// caller's DN and role are bound to it, so the frames that follow ride
// without per-message signatures. Staged-upload integrity is the per-chunk
// CRC checked on arrival plus the whole-file CRC the commit announces, which
// must equal the combination of the stored chunks' CRCs; downloads are
// verified once against the whole-file CRC at completion.
const (
	// FrameHello opens a stream: payload is a signed MsgHello envelope.
	FrameHello byte = 0x01
	// FrameHelloOK accepts a stream: payload is a signed MsgHelloReply
	// envelope; the client verifies it against the CA and the server role.
	FrameHelloOK byte = 0x02
	// FrameCall carries a binary-coded request (codec discriminator is the
	// first payload byte); FrameReply answers it under the same id.
	FrameCall  byte = 0x03
	FrameReply byte = 0x04
	// FramePut carries one raw staged-upload chunk; FramePutAck answers with
	// the contiguous watermark.
	FramePut    byte = 0x05
	FramePutAck byte = 0x06
	// FrameFetch requests a byte range of a job file; FrameData answers with
	// the raw bytes plus the whole-file size and CRC.
	FrameFetch byte = 0x07
	FrameData  byte = 0x08
	// FrameSub opens an event subscription; the server answers with one or
	// more FrameEvents batches under the same id. A one-shot subscription
	// (the Client.Call MsgSubscribe path) ends after a single batch; a push
	// subscription (Session.Watch) streams batches until the job terminates
	// or the client sends FrameSubStop.
	FrameSub     byte = 0x09
	FrameEvents  byte = 0x0A
	FrameSubStop byte = 0x0B
	// FrameError reports a per-request failure under the request's id:
	// payload is u8 code + error message. A refused FrameHello is answered
	// with one whose message is a server-signed MsgError envelope.
	FrameError byte = 0x7F
)

// frameKindNames labels the frame kinds, for metrics and error texts.
var frameKindNames = [...]string{
	FrameHello:   "hello",
	FrameHelloOK: "hello-ok",
	FrameCall:    "call",
	FrameReply:   "reply",
	FramePut:     "put",
	FramePutAck:  "put-ack",
	FrameFetch:   "fetch",
	FrameData:    "data",
	FrameSub:     "sub",
	FrameEvents:  "events",
	FrameSubStop: "sub-stop",
	FrameError:   "error",
}

// FrameKindName returns the label of a frame kind; an undefined kind is
// labelled by its hex value.
func FrameKindName(kind byte) string {
	if int(kind) < len(frameKindNames) && frameKindNames[kind] != "" {
		return frameKindNames[kind]
	}
	return fmt.Sprintf("0x%02x", kind)
}

// Stream error codes carried by FrameError payloads.
const (
	// StreamErrGeneric is a server-side request failure; the message mirrors
	// what the envelope path would have returned as an ErrorReply.
	StreamErrGeneric byte = 0
	// StreamErrUnsupported marks a request the server cannot serve over the
	// stream (unknown frame kind or call code); the client reports it as the
	// call's error.
	StreamErrUnsupported byte = 1
	// StreamErrBadFrame reports an undecodable frame; the connection is
	// poisoned and both ends drop it.
	StreamErrBadFrame byte = 2
)

// MaxFramePayload bounds a single frame payload — same ceiling as the
// gateway's HTTP request limit, and comfortably above staging.MaxChunkSize.
const MaxFramePayload = 64 << 20

// frameHeaderLen is the fixed prefix: u32 length + u8 kind + u64 id.
const frameHeaderLen = 4 + 1 + 8

// Frame is one decoded stream frame.
type Frame struct {
	Kind    byte
	ID      uint64
	Payload []byte
}

// Frame decode errors.
var (
	ErrFrameTooLarge = errors.New("protocol: frame exceeds MaxFramePayload")
	ErrFrameShort    = errors.New("protocol: truncated frame")
)

// framePool recycles encode-side frame buffers: a frame is encoded once,
// header and fields in one buffer, and costs no steady-state allocation. A
// data reply's Data is not copied in (sendFrame writes it from the vfs view
// behind the buffer), so the frames the pool sees are mostly under 100
// bytes and a pool miss costs half a kilobyte; an upload's put frame grows
// its buffer to the chunk once. Buffers above a sanity cap are dropped
// rather than pooled to keep the pool from pinning worst-case frames forever.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

const framePoolMax = 4 << 20

// getFrameBuf returns a pooled buffer holding a frame under construction:
// frameHeaderLen reserved bytes, behind which the caller appends the payload
// (n is a capacity hint for it). sendFrame fills the header in.
func getFrameBuf(n int) *[]byte {
	bp := framePool.Get().(*[]byte)
	if cap(*bp) < frameHeaderLen+n {
		*bp = make([]byte, 0, frameHeaderLen+n)
	}
	*bp = (*bp)[:frameHeaderLen]
	return bp
}

func putFrameBuf(bp *[]byte) {
	if cap(*bp) <= framePoolMax {
		framePool.Put(bp)
	}
}

// AppendFrame appends the encoded frame to b and returns the result.
func AppendFrame(b []byte, kind byte, id uint64, payload []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(1+8+len(payload)))
	b = append(b, kind)
	b = binary.BigEndian.AppendUint64(b, id)
	return append(b, payload...)
}

// sendFrame fills in the header reserved at the front of frame (see
// getFrameBuf) and writes the frame: frame, then tail — the end of the
// payload, written from where it rests rather than copied behind the rest
// (encodeFrame). The header counts both. A frame without a tail is one
// w.Write, as every frame a client writes is. It must be called under the
// stream's write lock, which keeps a frame's two writes together; a failed
// write leaves a torn frame, so its caller closes the connection.
func sendFrame(w io.Writer, kind byte, id uint64, frame, tail []byte) error {
	n := len(frame) - frameHeaderLen + len(tail)
	if n > MaxFramePayload {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame, uint32(1+8+n))
	frame[4] = kind
	binary.BigEndian.PutUint64(frame[5:], id)
	if _, err := w.Write(frame); err != nil || len(tail) == 0 {
		return err
	}
	_, err := w.Write(tail)
	return err
}

// writeFrame is sendFrame for a payload built elsewhere (the handshake's
// sealed envelopes): it copies the payload behind a pooled header.
func writeFrame(w io.Writer, kind byte, id uint64, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return ErrFrameTooLarge
	}
	bp := getFrameBuf(len(payload))
	*bp = append(*bp, payload...)
	err := sendFrame(w, kind, id, *bp, nil)
	putFrameBuf(bp)
	return err
}

// readFrame reads one frame. The payload is freshly allocated, never pooled,
// and ownership passes to the caller, who may keep it and anything decoded
// out of it for good: a FramePut payload becomes the stored chunk itself
// (staging.Spool.Chunk adopts it). The client's read loop is the one reader
// that does not use it: it reads a reply's header first and its payload into
// the buffer the waiting caller lent (streamConn.readLoop).
func readFrame(r io.Reader) (Frame, error) {
	f, n, err := readFrameHeader(r)
	if err == nil {
		f.Payload, err = readFramePayload(r, n, nil)
	}
	if err != nil {
		return Frame{}, err
	}
	return f, nil
}

// readFrameHeader reads one frame's header: its kind and ID, and the length
// n of the payload that follows, still unread.
func readFrameHeader(r io.Reader) (f Frame, n int, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return Frame{}, 0, err
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size < 9 {
		return Frame{}, 0, ErrFrameShort
	}
	if size > MaxFramePayload+9 {
		return Frame{}, 0, ErrFrameTooLarge
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return Frame{}, 0, fmt.Errorf("protocol: reading frame header: %w", err)
	}
	return Frame{Kind: hdr[4], ID: binary.BigEndian.Uint64(hdr[5:])}, int(size - 9), nil
}

// readFramePayload reads an n-byte payload into buf's capacity when it fits,
// and into a fresh allocation when it does not. An empty payload is nil.
func readFramePayload(r io.Reader, n int, buf []byte) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("protocol: reading frame payload: %w", err)
	}
	return buf, nil
}

// DecodeFrame decodes one frame from the front of b, returning the frame and
// the number of bytes consumed. It is the pure-function twin of readFrame,
// exposed for the fuzz harness.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < 4 {
		return Frame{}, 0, ErrFrameShort
	}
	n := binary.BigEndian.Uint32(b)
	if n < 9 {
		return Frame{}, 0, ErrFrameShort
	}
	if n > MaxFramePayload+9 {
		return Frame{}, 0, ErrFrameTooLarge
	}
	if uint32(len(b)-4) < n {
		return Frame{}, 0, ErrFrameShort
	}
	f := Frame{Kind: b[4], ID: binary.BigEndian.Uint64(b[5:13])}
	if n > 9 {
		f.Payload = append([]byte(nil), b[13:4+n]...)
	}
	return f, int(4 + n), nil
}

// appendStreamError appends a FrameError payload to b.
func appendStreamError(b []byte, code byte, msg string) []byte {
	return append(append(b, code), msg...)
}

// parseStreamError decodes a FrameError payload.
func parseStreamError(p []byte) (code byte, msg string) {
	if len(p) == 0 {
		return StreamErrGeneric, "unknown stream error"
	}
	return p[0], string(p[1:])
}
