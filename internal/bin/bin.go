// Package bin holds the uvarint primitives of the repository's one binary
// codec. Three formats are built from them and from nothing else: the frame
// bodies of a stream (internal/protocol), the AJO tree (internal/ajo) and the
// journal record (internal/journal). An encoder is a chain of Append* calls
// on a caller-owned buffer; a decoder consumes a Reader and checks Err once
// at the end.
//
// The package imports only the standard library, so every tier may use it.
package bin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrMalformed reports input that is truncated, over-long, or carries a
// length prefix larger than the bytes behind it.
var ErrMalformed = errors.New("malformed binary payload")

// Reader consumes one encoded message. A failed read returns the zero value
// and makes every later read fail too, so a decoder needs no check between
// fields.
type Reader struct {
	b   []byte
	bad bool
}

// NewReader reads from b. Byte slices the reader returns alias b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Failed reports whether a read has failed so far.
func (r *Reader) Failed() bool { return r.bad }

// Rest returns the bytes not yet consumed.
func (r *Reader) Rest() []byte { return r.b }

// Err is the decode verdict: ErrMalformed if any read failed or bytes are
// left over. One check covers the whole message.
func (r *Reader) Err() error {
	if r.bad {
		return ErrMalformed
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.b))
	}
	return nil
}

// Byte reads one raw byte (a tag or a kind code).
func (r *Reader) Byte() byte {
	if r.bad || len(r.b) == 0 {
		r.bad = true
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Uvarint reads an unsigned varint: a count, a length, a sequence number.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if r.bad || n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if r.bad || n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Float64 reads AppendFloat64's eight bytes. NaN and the infinities are
// malformed: a JSON envelope cannot carry them either, and no reader of a
// load figure expects one.
func (r *Reader) Float64() float64 {
	if r.bad || len(r.b) < 8 {
		r.bad = true
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.bad = true
		return 0
	}
	r.b = r.b[8:]
	return v
}

// Bytes returns a length-prefixed field as a view into the input, capped so
// an append by the holder cannot reach the bytes behind it.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.bad || uint64(len(r.b)) < n {
		r.bad = true
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Blob is Bytes with an empty field read as nil — what an omitted field of
// a JSON envelope decodes to.
func (r *Reader) Blob() []byte {
	if v := r.Bytes(); len(v) > 0 {
		return v
	}
	return nil
}

// Str reads a length-prefixed string (a copy, unlike Bytes).
func (r *Reader) Str() string { return string(r.Bytes()) }

// Bool reads AppendBool's byte; any non-zero value is true.
func (r *Reader) Bool() bool { return r.Uvarint() != 0 }

// Time decodes AppendTime's form. Zero marks the zero time distinctly from
// unix nano 0. UTC matches what a JSON envelope yields after an RFC 3339
// round trip, so the two decodings of one instant compare equal.
func (r *Reader) Time() time.Time {
	v := r.Varint()
	if v == 0 {
		return time.Time{}
	}
	return time.Unix(0, v).UTC()
}

// Count reads a list length and refuses one the remaining input cannot
// hold (every element takes at least one byte), so a hostile prefix cannot
// make the decoder allocate more than a small multiple of the input.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if r.bad || n > uint64(len(r.b)) {
		r.bad = true
		return 0
	}
	return int(n)
}

// Strs decodes AppendStrs's form; an empty list decodes as nil.
func (r *Reader) Strs() []string {
	n := r.Count()
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && !r.bad; i++ {
		out = append(out, r.Str())
	}
	return out
}

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zig-zag signed varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendFloat64 appends v's IEEE 754 bits as eight little-endian bytes (a
// load figure, a charge: the only non-integer numbers on the wire).
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBytes appends v behind its uvarint length.
func AppendBytes(b []byte, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// AppendStr appends v behind its uvarint length.
func AppendStr(b []byte, v string) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// AppendBool appends one byte, 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendTime encodes t as varint unix nanoseconds, 0 for the zero time. The
// location is not kept; Reader.Time yields UTC.
func AppendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return binary.AppendVarint(b, 0)
	}
	return binary.AppendVarint(b, t.UnixNano())
}

// AppendStrs appends a uvarint count and then each string.
func AppendStrs(b []byte, v []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, s := range v {
		b = AppendStr(b, s)
	}
	return b
}
