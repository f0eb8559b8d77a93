package bin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

// every holds one field of each primitive, plus the empty forms that read
// back as nil.
type every struct {
	Tag           byte
	U             uint64
	V             int64
	I             int
	Yes, No       bool
	F             float64
	At, Never     time.Time
	S             string
	View, NoView  []byte
	Blob, NoBlob  []byte
	Strs, NoStrs  []string
	Pairs, NoPair []pair
}

type pair struct {
	K string
	N uint64
}

// walk is the one description of every: the tests below run it in both
// directions, as the codecs built on this package do.
func (m *every) walk(c *Codec) {
	c.Byte(&m.Tag)
	c.Uvarint(&m.U)
	c.Varint(&m.V)
	c.Int(&m.I)
	c.Bool(&m.Yes)
	c.Bool(&m.No)
	c.Float64(&m.F)
	c.Time(&m.At)
	c.Time(&m.Never)
	c.Str(&m.S)
	c.View(&m.View)
	c.View(&m.NoView)
	c.Blob(&m.Blob)
	c.Blob(&m.NoBlob)
	c.Strs(&m.Strs)
	c.Strs(&m.NoStrs)
	for _, list := range []*[]pair{&m.Pairs, &m.NoPair} {
		for i := range Slice(c, list) {
			c.Str(&(*list)[i].K)
			c.Uvarint(&(*list)[i].N)
		}
	}
}

func filled() every {
	return every{
		Tag: 0xa1, U: math.MaxUint64, V: math.MinInt64, I: -42, Yes: true, F: -0.375,
		At: time.Date(1999, 8, 3, 9, 0, 0, 7, time.UTC), S: "Jülich",
		View: []byte{0, 1, 2}, Blob: []byte{9}, Strs: []string{"a", "", "c"},
		Pairs: []pair{{"fzj", 9}, {"", 0}},
	}
}

func TestPrimitivesRoundTrip(t *testing.T) {
	want := filled()
	enc := Encoder(nil)
	want.walk(&enc)
	if enc.Err() != nil || enc.Failed() || enc.Decoding() {
		t.Fatalf("encoder: err %v, failed %v, decoding %v", enc.Err(), enc.Failed(), enc.Decoding())
	}
	var got every
	dec := Decoder(enc.Bytes())
	got.walk(&dec)
	if err := dec.Err(); err != nil {
		t.Fatalf("Err after a full read: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded\n%+v\nwant\n%+v", got, want)
	}
	// Empty lists and byte fields read as nil, not as empty.
	if got.NoView != nil || got.NoBlob != nil || got.NoStrs != nil || got.NoPair != nil {
		t.Errorf("empty fields decoded as %#v %#v %#v %#v, want nil", got.NoView, got.NoBlob, got.NoStrs, got.NoPair)
	}
	// A walk run twice writes the same bytes: the decoded value re-encodes
	// to its input.
	again := Encoder(nil)
	got.walk(&again)
	if !bytes.Equal(again.Bytes(), enc.Bytes()) {
		t.Errorf("re-encoding differs:\n%x\n%x", again.Bytes(), enc.Bytes())
	}
	// Reads past the end fail and change nothing.
	f := 1.5
	if dec.Float64(&f); f != 1.5 || !dec.Failed() {
		t.Errorf("Float64 past the end = %v, failed=%v", f, dec.Failed())
	}
}

// TestEncodingOnlyReadsItsMessage: an encoder writes nothing back into the
// message it walks, so a message shared read-only — a finished job's outcome
// tree — may be encoded by any number of goroutines at once. Under -race a
// primitive that stores into its field while encoding is reported here.
func TestEncodingOnlyReadsItsMessage(t *testing.T) {
	m := filled()
	want := Encoder(nil)
	m.walk(&want)
	done := make(chan []byte)
	for range 4 {
		go func() {
			enc := Encoder(nil)
			m.walk(&enc)
			done <- enc.Bytes()
		}()
	}
	for range 4 {
		if got := <-done; !bytes.Equal(got, want.Bytes()) {
			t.Errorf("concurrent encoding differs:\n%x\n%x", got, want.Bytes())
		}
	}
}

// TestWireBytes pins the encodings themselves: the frame bodies, AJO
// documents and journal records already written are made of exactly these.
func TestWireBytes(t *testing.T) {
	c := Encoder([]byte{0xff}) // appends behind what the caller has
	u, v, i, yes, f, s := uint64(300), int64(-1), 3, true, 1.0, "ab"
	at, blob, strs := time.Unix(0, 1), []byte{7}, []string{"x"}
	c.Uvarint(&u)
	c.Varint(&v)
	c.Int(&i)
	c.Bool(&yes)
	c.Float64(&f)
	c.Str(&s)
	c.Time(&at)
	c.View(&blob)
	c.Strs(&strs)
	want := []byte{0xff, 0xac, 0x02, 0x01, 0x06, 0x01, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 2, 'a', 'b', 0x02, 1, 7, 1, 1, 'x'}
	if !bytes.Equal(c.Bytes(), want) {
		t.Fatalf("encoded %x\nwant    %x", c.Bytes(), want)
	}
}

func TestCodecVerdicts(t *testing.T) {
	// Bytes left over are malformed, and Err says how many.
	c := Decoder([]byte{1, 2})
	var tag byte
	c.Byte(&tag)
	if err := c.Err(); !errors.Is(err, ErrMalformed) || c.Failed() || len(c.Bytes()) != 1 {
		t.Errorf("trailing byte: %v, failed=%v, %d bytes unread", err, c.Failed(), len(c.Bytes()))
	}
	// A failure is sticky, and a failed read leaves its field untouched.
	c = Decoder([]byte{1}) // a string of length 1, no byte behind it
	s, u, yes, at := "before", uint64(7), true, time.Unix(1, 0)
	c.Str(&s)
	c.Uvarint(&u)
	c.Bool(&yes)
	c.Time(&at)
	list := []string{"kept"}
	c.Strs(&list)
	if s != "before" || u != 7 || !yes || !at.Equal(time.Unix(1, 0)) || len(list) != 1 || !errors.Is(c.Err(), ErrMalformed) {
		t.Errorf("reads after a failure: %q %d %v %v %q, %v", s, u, yes, at, list, c.Err())
	}
	// A count or length the input cannot hold is refused, not allocated for.
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, read := range map[string]func(c *Codec){
		"Len":   func(c *Codec) { c.Len(0) },
		"Str":   func(c *Codec) { c.Str(new(string)) },
		"View":  func(c *Codec) { c.View(new([]byte)) },
		"Strs":  func(c *Codec) { c.Strs(new([]string)) },
		"Slice": func(c *Codec) { Slice(c, new([]pair)) },
	} {
		c := Decoder(huge)
		if read(&c); !c.Failed() {
			t.Errorf("%s with a 2^40 prefix over an empty tail did not fail", name)
		}
	}
	if c := Decoder([]byte{2, 'a', 'b'}); c.Len(0) != 2 || c.Failed() {
		t.Error("Len refused a count the input can hold")
	}
	// NaN and the infinities are refused.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		e := Encoder(nil)
		e.Float64(&bad)
		c, f := Decoder(e.Bytes()), 0.0
		if c.Float64(&f); f != 0 || !c.Failed() {
			t.Errorf("Float64 of %v = %v, failed=%v", bad, f, c.Failed())
		}
	}
}

// TestViewAliasesBlobCopies: a View is the input itself, capped so an append
// cannot run into the bytes behind it; a Blob survives the input.
func TestViewAliasesBlobCopies(t *testing.T) {
	in := []byte{2, 'h', 'i', 2, 'h', 'o', 0xee}
	c := Decoder(in)
	var view, blob []byte
	c.View(&view)
	c.Blob(&blob)
	if string(view) != "hi" || cap(view) != len(view) || &view[0] != &in[1] {
		t.Errorf("View = %q cap %d: want a view of the input capped at its length", view, cap(view))
	}
	for i := range in {
		in[i] = 'x'
	}
	if string(view) != "xx" || string(blob) != "ho" {
		t.Errorf("after overwriting the input: view %q (want it to follow), blob %q (want it kept)", view, blob)
	}
}

// TestTailHoldsBackItsBytes: an encoder's Tail appends the length prefix only
// and hands the field itself back uncopied, so Bytes followed by Rest is what
// View would have written; a decoder's Tail is View.
func TestTailHoldsBackItsBytes(t *testing.T) {
	tag, data := byte(7), []byte("payload")
	view, tail := Encoder(nil), Encoder(nil)
	view.Byte(&tag)
	view.View(&data)
	tail.Byte(&tag)
	tail.Tail(&data)
	if got := append(tail.Bytes(), tail.Rest()...); !bytes.Equal(got, view.Bytes()) {
		t.Fatalf("Bytes+Rest = %x, View wrote %x", got, view.Bytes())
	}
	if len(tail.Bytes()) != 2 || &tail.Rest()[0] != &data[0] {
		t.Errorf("Tail copied its field: %d bytes written, Rest a copy: %v", len(tail.Bytes()), &tail.Rest()[0] != &data[0])
	}
	if e := Encoder(nil); e.Rest() != nil {
		t.Errorf("Rest without a Tail = %x, want nil", e.Rest())
	}

	in := view.Bytes()
	d := Decoder(in)
	var gotTag byte
	var got []byte
	d.Byte(&gotTag)
	d.Tail(&got)
	if err := d.Err(); err != nil || gotTag != tag || string(got) != "payload" || &got[0] != &in[2] {
		t.Errorf("decoded Tail = %q (tag %d, %v): want a view of the input", got, gotTag, err)
	}
}

// TestTimeZeroAndEpoch pins the one collision of the time encoding: the zero
// time is written as 0, so the unix epoch — whose nanosecond count is 0 too —
// reads back as the zero time. Every other instant survives, as UTC.
func TestTimeZeroAndEpoch(t *testing.T) {
	walk := func(in time.Time) (out time.Time, enc []byte) {
		e := Encoder(nil)
		e.Time(&in)
		d := Decoder(e.Bytes())
		out = time.Unix(99, 0) // a decoder overwrites what is there
		d.Time(&out)
		return out, e.Bytes()
	}
	zero, zeroBytes := walk(time.Time{})
	epoch, epochBytes := walk(time.Unix(0, 0))
	if !zero.IsZero() || !epoch.IsZero() || !bytes.Equal(zeroBytes, []byte{0}) || !bytes.Equal(epochBytes, []byte{0}) {
		t.Errorf("zero time → %v (%x), unix epoch → %v (%x): want both written as 0 and read as the zero time", zero, zeroBytes, epoch, epochBytes)
	}
	cet := time.Date(1999, 8, 3, 11, 0, 0, 1, time.FixedZone("CEST", 2*3600))
	if got, _ := walk(cet); !got.Equal(cet) || got.Location() != time.UTC {
		t.Errorf("%v → %v: want the same instant in UTC", cet, got)
	}
	if got, _ := walk(time.Unix(0, -1)); !got.Equal(time.Unix(0, -1)) {
		t.Errorf("one nanosecond before the epoch → %v", got)
	}
}
