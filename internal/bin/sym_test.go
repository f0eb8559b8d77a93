package bin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// stamped is one element of a list walked two ways: as Str and Time, the
// plain encodings, and as Sym and TimeAfter.
type stamped struct {
	S  string
	At time.Time
}

// walkPlain and walkSym are the two walks of one list.
func walkPlain(c *Codec, list *[]stamped) {
	for i := range Slice(c, list) {
		c.Str(&(*list)[i].S)
		c.Time(&(*list)[i].At)
	}
}

func walkSym(c *Codec, list *[]stamped) {
	var prev time.Time
	for i := range Slice(c, list) {
		c.Sym(&(*list)[i].S)
		c.TimeAfter(&(*list)[i].At, prev)
		prev = (*list)[i].At
	}
}

// encodeWith runs walk as an encoder over list.
func encodeWith(walk func(*Codec, *[]stamped), list []stamped) []byte {
	c := Encoder(nil)
	walk(&c, &list)
	return c.Bytes()
}

// decodeSyms is walkSym decoding in, also returning how many bytes the
// decoded strings took from the arena: a new chunk counts all it holds, a
// chunk that grew counts its growth, and a reference counts nothing.
func decodeSyms(in []byte) (list []stamped, arena int, err error) {
	c := Decoder(in)
	var prev time.Time
	for i := range Slice(&c, &list) {
		before := c.arena.String()
		c.Sym(&list[i].S)
		if after := c.arena.String(); unsafe.StringData(after) != unsafe.StringData(before) {
			arena += len(after)
		} else {
			arena += len(after) - len(before)
		}
		c.TimeAfter(&list[i].At, prev)
		prev = list[i].At
	}
	return list, arena, c.Err()
}

// modelSyms is the reference encoding of a list of Syms, written from the
// rule and nothing else: a non-empty string that is one of the last symRefs
// literals is the uvarint of how far back it is; anything else is the
// uvarint of symRefs plus its length, then its bytes, and if non-empty it
// becomes the newest literal.
func modelSyms(list []string) []byte {
	var out []byte
	var literals []string
	for _, s := range list {
		back := -1
		for k := 0; k < len(literals) && k < symRefs && s != ""; k++ {
			if literals[len(literals)-1-k] == s {
				back = k
				break
			}
		}
		if back >= 0 {
			out = binary.AppendUvarint(out, uint64(back))
			continue
		}
		out = binary.AppendUvarint(out, uint64(symRefs+len(s)))
		out = append(out, s...)
		if s != "" {
			literals = append(literals, s)
		}
	}
	return out
}

// checkSyms holds one list to the Sym and TimeAfter contract: it decodes to
// what the plain walk decodes to, its strings are encoded exactly as the
// reference model encodes them, and its decoded strings take no more arena
// bytes than the input has.
func checkSyms(t *testing.T, list []stamped) {
	t.Helper()
	in := encodeWith(walkSym, list)
	got, arena, err := decodeSyms(in)
	if err != nil {
		t.Fatalf("decoding %q: %v", list, err)
	}
	var plain []stamped
	d := Decoder(encodeWith(walkPlain, list))
	walkPlain(&d, &plain)
	if err := d.Err(); err != nil {
		t.Fatalf("plain decoding %q: %v", list, err)
	}
	if !reflect.DeepEqual(got, plain) {
		t.Fatalf("Sym/TimeAfter decoded\n%v\nStr/Time decoded\n%v", got, plain)
	}
	if arena > len(in) {
		t.Errorf("decoded strings took %d arena bytes from a %d-byte input", arena, len(in))
	}
	// The strings alone, so the model needs no times.
	strs := make([]string, len(list))
	for i := range list {
		strs[i] = list[i].S
	}
	c := Encoder(nil)
	for i := range strs {
		c.Sym(&strs[i])
	}
	if want := modelSyms(strs); !bytes.Equal(c.Bytes(), want) {
		t.Errorf("Syms of %q encode to\n%x\nthe model writes\n%x", strs, c.Bytes(), want)
	}
}

func TestSymsRepeatAndTimesFollow(t *testing.T) {
	at := time.Date(1999, 8, 3, 9, 0, 0, 0, time.UTC)
	step := 150500 * time.Millisecond
	var batch []stamped
	for i := range 26 {
		batch = append(batch,
			stamped{"FZJ-T3E-000001", at.Add(time.Duration(i/3) * step)},
			stamped{"", at.Add(time.Duration(i/3) * step)},
			stamped{[]string{"status", "action-done", "admitted"}[i%3], at.Add(time.Duration(i/3) * step)})
	}
	// Cycles of distinct strings: each repeat is a cycle back, so the table
	// is searched to the middle, to its last entry, and one past it.
	cycles := func(n int) []stamped {
		list := make([]stamped, 3*n)
		for i := range list {
			list[i] = stamped{S: string(rune('a' + i%n))}
		}
		return list
	}
	for _, list := range [][]stamped{
		nil,
		{{S: "x"}},
		{{"", time.Unix(0, 0)}, {"", time.Time{}}, {"a", time.Unix(0, -1)}, {"a", time.Unix(1<<33, 1)}},
		batch,
		cycles(12),
		cycles(symRefs),
		cycles(symRefs + 1),
	} {
		checkSyms(t, list)
	}
	if plain, sym := len(encodeWith(walkPlain, batch)), len(encodeWith(walkSym, batch)); sym*3 > plain {
		t.Errorf("a %d-element batch of three repeating strings is %d bytes as Syms, %d as Strs: want a third or less", len(batch), sym, plain)
	}
}

// TestSymWireBytes pins the encoding: literals behind symRefs plus their
// length, references as how far back, the empty string always a literal; a
// TimeAfter the zero time is Time, and after another instant its offset.
func TestSymWireBytes(t *testing.T) {
	c := Encoder(nil)
	for _, s := range []string{"ab", "ab", "", "", "cd", "ab", "cd"} {
		c.Sym(&s)
	}
	want := []byte{18, 'a', 'b', 0, 16, 16, 18, 'c', 'd', 1, 0}
	if !bytes.Equal(c.Bytes(), want) {
		t.Errorf("Syms encoded %x\nwant        %x", c.Bytes(), want)
	}
	at := time.Unix(0, 1)
	time1, after := Encoder(nil), Encoder(nil)
	time1.Time(&at)
	after.TimeAfter(&at, time.Time{})
	later := at.Add(150500 * time.Millisecond)
	after.TimeAfter(&later, at)
	if !bytes.Equal(after.Bytes()[:1], time1.Bytes()) || !bytes.Equal(after.Bytes()[1:], binary.AppendVarint(nil, 150_500_000_000)) {
		t.Errorf("TimeAfter wrote %x, want Time's %x then the offset", after.Bytes(), time1.Bytes())
	}
}

// TestSymRefusals: a reference to a literal not read, or a literal longer
// than the input behind it, is malformed, and leaves its field untouched.
func TestSymRefusals(t *testing.T) {
	for name, in := range map[string][]byte{
		"reference with no literal":    {0},
		"reference past the table":     {18, 'a', 'b', 1},
		"literal longer than the rest": {20, 'a', 'b'},
		"huge literal":                 binary.AppendUvarint(nil, 1<<40),
		"truncated prefix":             {0x80},
	} {
		c := Decoder(in)
		var s string
		for !c.Failed() && len(c.Bytes()) > 0 {
			s = "kept"
			c.Sym(&s)
		}
		if !errors.Is(c.Err(), ErrMalformed) || s != "kept" {
			t.Errorf("%s: %x decoded to %q, %v; want ErrMalformed and the field untouched", name, in, s, c.Err())
		}
	}
	// A table that has wrapped refers only to its last symRefs literals: the
	// farthest reference reads the second literal, and the first one is a
	// literal again.
	e := Encoder(nil)
	for i := range symRefs + 1 {
		s := string(rune('a' + i))
		e.Sym(&s)
	}
	in := append(e.Bytes(), symRefs-1)
	d := Decoder(in)
	var s string
	for range symRefs + 2 {
		d.Sym(&s)
	}
	if d.Err() != nil || s != "b" {
		t.Errorf("reference %d after %d literals read %q (%v), want \"b\"", symRefs-1, symRefs+1, s, d.Err())
	}
	a := "a"
	e.Sym(&a)
	if tail := e.Bytes()[len(e.Bytes())-2:]; !bytes.Equal(tail, []byte{symRefs + 1, 'a'}) {
		t.Errorf("an evicted literal encoded as %x, want a literal again", tail)
	}
}

// FuzzSymMatchesStr builds lists from fuzz input — strings from a pool of
// more distinct values than the table holds, so they repeat and are evicted,
// and instants a signed step apart, some of them the zero time and the epoch —
// and holds each to checkSyms.
func FuzzSymMatchesStr(f *testing.F) {
	f.Add([]byte("FZJ-T3E-000001 action-done"), []byte{14, 1, 0, 0x80, 14, 2, 11, 0, 14, 0x7f, 3, 5})
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz0123456789"), []byte{1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1, 8, 1, 9, 1, 10, 1, 11, 1, 12, 1, 13, 1, 14, 1, 15, 1, 16, 1, 17, 1, 1, 1})
	f.Add([]byte{}, []byte{0, 0})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		var list []stamped
		var at time.Time
		for ; len(ops) >= 2; ops = ops[2:] {
			s := string(data[:min(int(ops[0])%32, len(data))])
			switch step := int8(ops[1]); step {
			case -128:
				at = time.Time{}
			case 127:
				at = time.Unix(0, 0)
			default:
				at = time.Unix(0, unixNano(at)+int64(step)*37_625_000_001)
			}
			list = append(list, stamped{s, at})
		}
		checkSyms(t, list)
	})
}

// FuzzSymDecoder feeds arbitrary bytes to the Sym/TimeAfter walk. What it
// accepts took no more arena bytes than the input holds, and re-encodes to no
// more bytes than the input, which decode to the same list and encode again
// to themselves.
func FuzzSymDecoder(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeWith(walkSym, []stamped{{"ab", time.Unix(9, 0)}, {"ab", time.Unix(10, 0)}, {"", time.Time{}}}))
	f.Add([]byte{2, 18, 'a', 'b', 2, 18, 'a', 'b', 2}) // a literal repeated where a reference would do
	f.Add([]byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		list, arena, err := decodeSyms(in)
		if err != nil {
			return
		}
		if arena > len(in) {
			t.Fatalf("decoded strings took %d arena bytes from a %d-byte input %x", arena, len(in), in)
		}
		again := encodeWith(walkSym, list)
		if len(again) > len(in) {
			t.Fatalf("%x re-encodes to %d bytes, more than its %d", in, len(again), len(in))
		}
		back, _, err := decodeSyms(again)
		if err != nil || !reflect.DeepEqual(back, list) {
			t.Fatalf("%x re-encodes to %x, which decodes to %v (%v), want %v", in, again, back, err, list)
		}
		if third := encodeWith(walkSym, back); !bytes.Equal(third, again) {
			t.Fatalf("re-encoding is not stable: %x then %x", again, third)
		}
	})
}
