// Package bin is the repository's one binary codec. Three formats are built
// from it and from nothing else: the frame bodies of a stream
// (internal/protocol), the AJO and outcome trees (internal/ajo) and the
// journal record (internal/journal).
//
// A message is described once, as a walk: a function that hands a Codec a
// pointer to each field in wire order. Run on an Encoder the walk appends the
// fields to a caller-owned buffer; run on a Decoder it fills them from the
// input (the target starts as the zero message) and Err is checked once at
// the end. Encoding and decoding cannot disagree on field order, and a field
// the walk names is carried in both directions.
//
// A byte field that ends its message may be walked as a Tail: an encoder
// then appends only its length prefix and holds the bytes back (Rest), so a
// writer can send them from where they rest instead of copying them behind
// the other fields. The message is Bytes followed by Rest either way.
//
// A decoded string is a copy: it never aliases the input, so the input may be
// reused or overwritten once the walk is done. The strings of one message
// share an arena, cut from chunks that grow geometrically (see Str), so a
// message of many short fields costs a handful of allocations, not one per
// field. A surviving string pins its chunk, and no chunk is larger than the
// message's input.
//
// The package imports only the standard library, so every tier may use it.
package bin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"
)

// ErrMalformed reports input that is truncated, over-long, or carries a
// length prefix larger than the bytes behind it.
var ErrMalformed = errors.New("malformed binary payload")

// Codec is one direction of one message. A failed read leaves its field
// untouched and makes every later read fail too, so a walk needs no check
// between fields. Keep a Codec in a local and pass its address down a chain
// of direct calls: reached through a function value or an interface it moves
// to the heap, and the message with it.
//
// A Codec must not be copied once it has decoded a string: the arena is a
// strings.Builder, which panics when a copy of it is written to.
type Codec struct {
	b     []byte          // encoding: the output so far; decoding: the input not yet read
	rest  []byte          // encoding: the Tail field's bytes, not copied into b
	arena strings.Builder // decoding: the current chunk of this message's strings
	dec   bool
	bad   bool
}

// Encoder returns a codec whose walks append to b.
func Encoder(b []byte) Codec { return Codec{b: b} }

// Decoder returns a codec whose walks consume p. Views it hands out alias p;
// strings never do.
func Decoder(p []byte) Codec { return Codec{b: p, dec: true} }

// Decoding reports the direction, for the few places a walk has to differ:
// sizing a map, allocating a node of a tree.
func (c *Codec) Decoding() bool { return c.dec }

// Failed reports whether a read has failed so far.
func (c *Codec) Failed() bool { return c.bad }

// Bytes returns what an encoder has written, or what a decoder has yet to
// read.
func (c *Codec) Bytes() []byte { return c.b }

// Err is the decode verdict: ErrMalformed if any read failed or bytes are
// left over. One check covers the whole message.
func (c *Codec) Err() error {
	switch {
	case c.bad:
		return ErrMalformed
	case c.dec && len(c.b) != 0:
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(c.b))
	}
	return nil
}

// Byte walks one raw byte (a tag or a kind code).
func (c *Codec) Byte(v *byte) {
	switch {
	case !c.dec:
		c.b = append(c.b, *v)
	case c.bad || len(c.b) == 0:
		c.bad = true
	default:
		*v, c.b = c.b[0], c.b[1:]
	}
}

// Uvarint walks an unsigned varint: a sequence number, a checksum.
func (c *Codec) Uvarint(v *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *v)
		return
	}
	x, n := binary.Uvarint(c.b)
	if c.bad || n <= 0 {
		c.bad = true
		return
	}
	*v, c.b = x, c.b[n:]
}

// Varint walks a zig-zag signed varint.
func (c *Codec) Varint(v *int64) {
	if !c.dec {
		c.b = binary.AppendVarint(c.b, *v)
		return
	}
	x, n := binary.Varint(c.b)
	if c.bad || n <= 0 {
		c.bad = true
		return
	}
	*v, c.b = x, c.b[n:]
}

// Int walks an int as a Varint.
func (c *Codec) Int(v *int) {
	x := int64(*v)
	c.Varint(&x)
	*v = int(x)
}

// Bool walks one byte, 1 or 0; any non-zero value reads as true.
func (c *Codec) Bool(v *bool) {
	var x uint64
	if *v {
		x = 1
	}
	c.Uvarint(&x)
	*v = x != 0
}

// Float64 walks v's IEEE 754 bits as eight little-endian bytes (a load
// figure, a charge: the only non-integer numbers on the wire). NaN and the
// infinities read as malformed: a JSON envelope cannot carry them either, and
// no reader of a load figure expects one.
func (c *Codec) Float64(v *float64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
		return
	}
	if c.bad || len(c.b) < 8 {
		c.bad = true
		return
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	if math.IsNaN(x) || math.IsInf(x, 0) {
		c.bad = true
		return
	}
	*v, c.b = x, c.b[8:]
}

// Time walks t as varint unix nanoseconds. The zero time is written as 0 and
// 0 reads back as the zero time, so the one instant that does not survive is
// time.Unix(0, 0) itself: it also encodes as 0 and decodes as time.Time{}.
// The location is not kept; a decoded time is UTC, which matches what a JSON
// envelope yields after an RFC 3339 round trip, so the two decodings of one
// instant compare equal.
func (c *Codec) Time(t *time.Time) {
	var ns int64
	if !t.IsZero() {
		ns = t.UnixNano()
	}
	c.Varint(&ns)
	switch {
	case !c.dec || c.bad:
	case ns == 0:
		*t = time.Time{}
	default:
		*t = time.Unix(0, ns).UTC()
	}
}

// Len walks a list count or a length prefix: n is written when encoding and
// returned as read when decoding. A decoder refuses a count the remaining
// input cannot hold (every element takes at least one byte), so a hostile
// prefix cannot make it allocate more than a small multiple of the input.
func (c *Codec) Len(n int) int {
	u := uint64(n)
	c.Uvarint(&u)
	if c.dec && (c.bad || u > uint64(len(c.b))) {
		c.bad = true
		return 0
	}
	return int(u)
}

// Str walks a length-prefixed string. Decoded, it is a copy, unlike View,
// cut from the message's arena: the chunk it is written to holds the other
// strings of the message too. A string that does not fit the current chunk
// starts a new one of max(n, min(2*cap, remaining input)) bytes; the old
// chunk is left to the strings already cut from it, never copied. So the
// first string of a message costs one allocation of its own length, and the
// rest a number of allocations logarithmic in the message's size. No chunk is
// larger than the input left to read when it was made (rounded up to the
// allocator's size class), so a string the caller keeps — an AJO's for the
// life of its job, a replayed journal entry's — pins at most its own
// message's size, and all the chunks of one message together stay below
// twice its size (plus the last chunk's rounding).
func (c *Codec) Str(v *string) {
	n := c.Len(len(*v))
	switch {
	case !c.dec:
		c.b = append(c.b, *v...)
	case c.bad:
	case n == 0:
		*v = ""
	default:
		if size := c.arena.Cap(); size-c.arena.Len() < n {
			c.arena = strings.Builder{}
			c.arena.Grow(max(n, min(2*size, len(c.b))))
		}
		at := c.arena.Len()
		c.arena.Write(c.b[:n])
		*v, c.b = c.arena.String()[at:], c.b[n:]
	}
}

// View walks a length-prefixed byte field. Decoded, it is a view into the
// input, capped so an append by the holder cannot reach the bytes behind it;
// an empty field reads as nil — what an omitted field of a JSON envelope
// decodes to.
func (c *Codec) View(v *[]byte) {
	n := c.Len(len(*v))
	switch {
	case !c.dec:
		c.b = append(c.b, *v...)
	case c.bad:
	case n == 0:
		*v = nil
	default:
		*v, c.b = c.b[:n:n], c.b[n:]
	}
}

// Tail walks a length-prefixed byte field that ends its message. Decoded, it
// is View. Encoded, only the length prefix is appended; the bytes are held
// back, uncopied, for Rest. Nothing may be walked after it.
func (c *Codec) Tail(v *[]byte) {
	if c.dec {
		c.View(v)
		return
	}
	c.Len(len(*v))
	c.rest = *v
}

// Rest returns the field an encoder's Tail held back (nil if none): the
// encoded message is Bytes followed by Rest.
func (c *Codec) Rest() []byte { return c.rest }

// Blob is View decoded as a copy: for a field that outlives the input.
func (c *Codec) Blob(v *[]byte) {
	c.View(v)
	if c.dec {
		*v = append([]byte(nil), *v...)
	}
}

// Slice walks a list's count and returns the list for the caller to range
// over and walk each element in place; a decoder makes it first. An empty
// list reads as nil.
func Slice[S ~[]E, E any](c *Codec, s *S) S {
	n := c.Len(len(*s))
	switch {
	case !c.dec || c.bad:
	case n == 0:
		*s = nil
	default:
		*s = make(S, n)
	}
	return *s
}

// Strs walks a count and then each string.
func (c *Codec) Strs(v *[]string) {
	for i := range Slice(c, v) {
		c.Str(&(*v)[i])
	}
}
