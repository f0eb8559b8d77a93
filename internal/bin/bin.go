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
// A field that repeats within its message — a job ID on every event of a
// batch — may be walked as a Sym: its first occurrence is written as a
// literal, and a later one as a one-byte reference to it (see Sym). A field
// of a sorted or numbered list — the job IDs of a list reply — may be walked
// as a StrAfter the same field of the element before, which writes only the
// suffix that differs. A list of instants may walk each as a TimeAfter the
// previous one, so a run of close instants costs a few bytes each instead of
// nine. All three are chosen per field: a walk that uses none of them writes
// the bytes it always wrote.
//
// A decoded string is a copy: it never aliases the input, so the input may be
// reused or overwritten once the walk is done. A string of 1 to internMax
// bytes that the process has decoded before (a job ID, an event type) comes
// from one package-level table of standalone copies, which holds at most
// internSlots × (internMax bytes + a string header). The other strings of a
// message share an arena, cut from chunks that grow geometrically, so a
// message of many short fields costs a handful of allocations, not one per
// field (see Str).
//
// What a decode may allocate is bounded by its input. A Decoder starts with
// a budget of Amplification bytes for each input byte, plus Slack, and every
// allocation a walk makes is charged to it before it is made: a list's
// elements (Slice), a string's bytes, interned or not (Str, Sym, StrAfter), a
// copied byte field (Blob), and what a walk allocates itself — a map sized
// for the count it read, a node of a tree (Charge). A Sym reference, a View
// and a Tail allocate nothing and cost nothing. A count that would overdraw
// the budget fails the decode before anything is made, and Err names it
// ErrOverBudget. The charges depend on the input alone, never on the intern
// table, so one input gets one verdict in every process.
//
// The package imports only the standard library, so every tier may use it.
package bin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"
)

// ErrMalformed reports input that is truncated, over-long, or carries a
// length prefix larger than the bytes behind it.
var ErrMalformed = errors.New("malformed binary payload")

// ErrOverBudget reports input that would decode into more bytes than its
// budget allows (see Amplification): a count or a prefix reference that asks
// for far more memory than the bytes that carried it.
var ErrOverBudget = errors.New("binary payload decodes to more than its budget")

// A Decoder of n input bytes may allocate Amplification × n + Slack bytes.
//
// Amplification is the largest ratio of decoded to input bytes of any
// well-formed element, so no message an encoder writes is refused:
//
//	element                         input   decoded                     ratio
//	front-coded list row (StrAfter)  6 B    64 B row + 2 × 64 B strings  32
//	outcome node (ajo)              12 B    224 B node + 8 B pointer     19.3
//	dependency (ajo)                 3 B    56 B                         18.7
//	pushed event (all Syms)         10 B    136 B                        13.6
//
// The row is the bound: its six bytes — two prefix lengths, two empty
// suffixes, a status and an instant — repeat the row before, whose job ID and
// name may each be internMax bytes long. Every other element costs at least
// one input byte per 32 bytes it decodes to; a string or a byte field costs
// at least its own length. Slack covers what a message allocates once
// whatever its size: the first table of a small map, a root node, an error.
const (
	Amplification = 32
	Slack         = 1 << 10
)

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
	syms  [symRefs]string // the last symRefs Sym literals, a ring: the newest is syms[(nsyms-1)%symRefs]
	nsyms int             // Sym literals written or read so far
	front [internMax]byte // decoding: a StrAfter string, assembled before it is interned or cut
	spare int             // decoding: the bytes left to allocate (see Amplification)
	dec   bool
	bad   bool
	over  bool // a charge overdrew spare (ErrOverBudget)
}

// Encoder returns a codec whose walks append to b.
func Encoder(b []byte) Codec { return Codec{b: b} }

// Decoder returns a codec whose walks consume p, with a budget of
// Amplification × len(p) + Slack bytes to allocate. Views it hands out alias
// p; strings never do.
func Decoder(p []byte) Codec {
	return Codec{b: p, dec: true, spare: Amplification*len(p) + Slack}
}

// Decoding reports the direction, for the few places a walk has to differ:
// sizing a map, allocating a node of a tree.
func (c *Codec) Decoding() bool { return c.dec }

// Failed reports whether a read has failed so far.
func (c *Codec) Failed() bool { return c.bad }

// Bytes returns what an encoder has written, or what a decoder has yet to
// read.
func (c *Codec) Bytes() []byte { return c.b }

// Err is the decode verdict: ErrOverBudget if a charge overdrew the budget,
// ErrMalformed if any other read failed or bytes are left over. One check
// covers the whole message.
func (c *Codec) Err() error {
	switch {
	case c.over:
		return ErrOverBudget
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

// Int walks an int as a Varint. Like every walk it writes v only when
// decoding, so a message shared read-only may be encoded concurrently.
func (c *Codec) Int(v *int) {
	x := int64(*v)
	if c.Varint(&x); c.dec {
		*v = int(x)
	}
}

// Bool walks one byte, 1 or 0; any non-zero value reads as true.
func (c *Codec) Bool(v *bool) {
	var x uint64
	if *v {
		x = 1
	}
	if c.Uvarint(&x); c.dec {
		*v = x != 0
	}
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
func (c *Codec) Time(t *time.Time) { c.TimeAfter(t, time.Time{}) }

// TimeAfter walks t as the varint signed nanoseconds since prev: the time of
// the list element walked before it, already decoded when t is, so a run of
// close instants costs a byte or a few each. Both instants are counted as
// Time counts them (the zero time as 0) and the difference wraps, so what
// Time keeps TimeAfter keeps; after the zero time it writes Time's bytes.
func (c *Codec) TimeAfter(t *time.Time, prev time.Time) {
	base := unixNano(prev)
	ns := unixNano(*t) - base
	c.Varint(&ns)
	switch {
	case !c.dec || c.bad:
	case base+ns == 0:
		*t = time.Time{}
	default:
		*t = time.Unix(0, base+ns).UTC()
	}
}

// unixNano is t's instant as Time writes it: the zero time is 0.
func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// Len walks a list count or a length prefix: n is written when encoding and
// returned as read when decoding. A decoder refuses a count the remaining
// input cannot hold (every element takes at least one byte). That alone does
// not bound what the count makes — an element may be many times larger than
// its byte — so whatever is made for it is charged first (Slice, Charge).
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
// and its length is charged to the budget. A string of 1 to internMax bytes
// is interned: its first sighting is only noted, its second stores a
// standalone copy in the table, and from then on it costs no allocation; one
// that collides in the table, a hostile peer's included, costs only its cut.
// The others are cut from the message's arena. One that does not fit the
// current chunk starts a new one of max(n, min(2*cap, remaining input))
// bytes, the old one left to the strings cut from it: the first costs one
// allocation of its own length, the rest a number logarithmic in the
// message's size. No chunk is larger than the larger of its first string and
// the input left to read when it was made (rounded up to a size class), so a
// string the caller keeps — an AJO's for the life of its job, a replayed
// journal entry's — pins at most its own message's size, and the chunks of a
// message whose strings are all Str or Sym literals together stay below
// twice its size (plus the last chunk's rounding).
func (c *Codec) Str(v *string) {
	n := c.Len(len(*v))
	switch {
	case !c.dec:
		c.b = append(c.b, *v...)
	case c.charge(n, 1):
		*v = c.cut(n)
	}
}

// StrAfter walks a string that likely shares a prefix with prev, the same
// field of the list element walked before it (a job ID after the one before
// it, "" for the first): a uvarint p, the length of that shared prefix, then
// the rest of the string as a Str. An encoder writes the longest shared
// prefix of a string of at most internMax bytes and 0 for a longer one, so
// equal lists encode to equal bytes. A decoder refuses a p longer than prev,
// or one that would make a string longer than internMax. A string of p > 0 is
// assembled in the Codec's own array from prev's prefix and the suffix, then
// interned or cut from the arena as Str's are, so a row costs what it costs
// as a Str; its whole length is charged, which is what bounds a run of short
// rows that each repeat a long prefix. StrAfter is not Str's encoding; a
// field moves between them only with a format version.
func (c *Codec) StrAfter(v *string, prev string) {
	if !c.dec {
		p := 0
		if len(*v) <= internMax {
			for p < len(*v) && p < len(prev) && (*v)[p] == prev[p] {
				p++
			}
		}
		u, rest := uint64(p), (*v)[p:]
		c.Uvarint(&u)
		c.Str(&rest)
		return
	}
	var p uint64
	if c.Uvarint(&p); p == 0 {
		c.Str(v)
		return
	}
	n := c.Len(0) // decoding: the suffix's length as read
	switch {
	case c.bad:
	case p > uint64(len(prev)) || int(p)+n > internMax:
		c.bad = true
	case c.charge(int(p)+n, 1):
		at := copy(c.front[:], prev[:p])
		at += copy(c.front[at:], c.b[:n])
		c.b = c.b[n:]
		*v = c.keep(c.front[:at])
	}
}

// cut decodes the next n input bytes, which the caller has checked are
// there and charged, as a string of the message (Str).
func (c *Codec) cut(n int) string {
	s := c.keep(c.b[:n])
	c.b = c.b[n:]
	return s
}

// keep returns a string holding b's bytes: the intern table's copy, or one
// cut from the arena.
func (c *Codec) keep(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := intern(b); ok {
		return s
	}
	if size := c.arena.Cap(); size-c.arena.Len() < len(b) {
		c.arena = strings.Builder{}
		c.arena.Grow(max(len(b), min(2*size, len(c.b))))
	}
	at := c.arena.Len()
	c.arena.Write(b)
	return c.arena.String()[at:]
}

// charge takes n values of size bytes from a decoder's budget before the
// caller allocates them, and reports whether it may: false once any read has
// failed, and false — the decode failed with ErrOverBudget — if they do not
// fit. An encoder allocates nothing for its message and is never charged.
func (c *Codec) charge(n int, size uintptr) bool {
	switch {
	case !c.dec:
		return true
	case c.bad:
		return false
	case size != 0 && uint64(n) > uint64(c.spare)/uint64(size):
		c.bad, c.over = true, true
		return false
	}
	c.spare -= n * int(size)
	return true
}

// Charge takes n values of T from a decoder's budget before a walk allocates
// them itself — a node of a tree (n = 1), a map sized for the count it read
// (T a MapEntry) — and reports whether the walk may. When it may not, the
// decode has failed and Err says why; the walk allocates nothing and stops.
// An encoder always may.
func Charge[T any](c *Codec, n int) bool {
	var v T
	return c.charge(n, unsafe.Sizeof(v))
}

// MapEntry is one entry of a map a decoder sizes for the count it read, as
// Charge counts it: three times its key and value. The runtime's table for n
// entries keeps slots at most 7/8 full, in a power-of-two number of them, so
// it takes up to two and a half times its entries' bytes (80.1 B an entry of
// a map[string]string sized for 1 Mi on go1.24, 53.3 B of a
// map[string]uint64).
type MapEntry[K comparable, V any] [3]struct {
	K K
	V V
}

// The intern table (see Str): strings of 1 to internMax bytes, each at its
// hash's home slot or the next, and the hashes of strings seen once.
const internMax, internSlots = 64, 1 << 13

var internTab [internSlots]atomic.Pointer[string]
var internSeen [internSlots]atomic.Uint64

// intern returns b's entry, storing it when b is seen for the second time,
// or false for a first sighting, which is noted at other bits of the hash so
// that strings sharing a home slot do not forget each other.
func intern(b []byte) (string, bool) {
	if len(b) > internMax {
		return "", false
	}
	h := internHash(b)
	i, j := h%internSlots, (h+1)%internSlots
	for _, k := range [2]uint64{i, j} {
		if s := internTab[k].Load(); s != nil && *s == string(b) {
			return *s, true
		}
	}
	if seen := &internSeen[h*0x9e3779b97f4a7c15>>32%internSlots]; seen.Load() != h {
		seen.Store(h)
		return "", false
	}
	if internTab[i].Load() != nil && internTab[j].Load() == nil {
		i = j
	}
	s := string(b)
	internTab[i].Store(&s)
	return s, true
}

// internHash is FNV-1a: fixed, so every allocation count is the same on
// every box and in every run.
func internHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range b {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return h
}

// symRefs is how far back a Sym can refer: to any of the message's last
// symRefs distinct literals.
const symRefs = 16

// Sym walks a string that is likely to repeat within its message. It is one
// uvarint x, then, if x is at least symRefs, a literal of x-symRefs bytes, cut
// from the arena as Str cuts it; an x below symRefs is a reference to the
// x-th most recent non-empty literal of the message's Syms (0 the newest) and
// is all there is. An encoder writes a reference whenever the string is one
// of the last symRefs literals, so equal messages encode to equal bytes, and
// a decoder refuses a reference to a literal it has not read. The table is
// the Codec's own array: a reference costs no allocation either way, and a
// decoded one is the string decoded before, so it adds nothing to the arena
// and is not charged; a literal is charged as a Str.
// Sym is not Str's encoding; a field moves between them only with a format
// version.
func (c *Codec) Sym(v *string) {
	if !c.dec {
		x := uint64(symRefs + len(*v))
		if i := c.symIndex(*v); i >= 0 {
			x = uint64(i)
		} else if *v != "" {
			c.remember(*v)
		}
		c.b = binary.AppendUvarint(c.b, x)
		if x >= symRefs {
			c.b = append(c.b, *v...)
		}
		return
	}
	var x uint64
	c.Uvarint(&x)
	switch {
	case c.bad:
	case x < symRefs:
		if x >= uint64(min(c.nsyms, symRefs)) {
			c.bad = true
			return
		}
		*v = c.syms[(c.nsyms-1-int(x))%symRefs]
	case x-symRefs > uint64(len(c.b)):
		c.bad = true
	case c.charge(int(x-symRefs), 1):
		*v = c.cut(int(x - symRefs))
		if *v != "" {
			c.remember(*v)
		}
	}
}

// symIndex returns how far back s is among the Sym literals remembered, or
// -1. The empty string is never remembered: its literal is one byte too.
func (c *Codec) symIndex(s string) int {
	for i := range min(c.nsyms, symRefs) {
		if c.syms[(c.nsyms-1-i)%symRefs] == s {
			return i
		}
	}
	return -1
}

func (c *Codec) remember(s string) {
	c.syms[c.nsyms%symRefs] = s
	c.nsyms++
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

// Blob is View decoded as a copy, charged its length: for a field that
// outlives the input.
func (c *Codec) Blob(v *[]byte) {
	if !c.dec {
		c.View(v)
		return
	}
	var b []byte
	if c.View(&b); c.charge(len(b), 1) {
		*v = append([]byte(nil), b...)
	}
}

// Slice walks a list's count and returns the list for the caller to range
// over and walk each element in place; a decoder charges count × the
// element's size and makes it first. An empty list reads as nil.
func Slice[S ~[]E, E any](c *Codec, s *S) S {
	n := c.Len(len(*s))
	switch {
	case !c.dec || c.bad:
	case n == 0:
		*s = nil
	case Charge[E](c, n):
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
