package bin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// row is one element of a list walked two ways: each field as a Str, and
// each as a StrAfter the same field of the row before.
type row struct{ ID, Name string }

func walkRowsPlain(c *Codec, list *[]row) {
	for i := range Slice(c, list) {
		c.Str(&(*list)[i].ID)
		c.Str(&(*list)[i].Name)
	}
}

func walkRowsFront(c *Codec, list *[]row) {
	var prev row
	for i := range Slice(c, list) {
		r := &(*list)[i]
		c.StrAfter(&r.ID, prev.ID)
		c.StrAfter(&r.Name, prev.Name)
		prev = *r
	}
}

func encodeRows(walk func(*Codec, *[]row), list []row) []byte {
	c := Encoder(nil)
	walk(&c, &list)
	return c.Bytes()
}

// decodeFront is walkRowsFront decoding in, also returning what the decode
// charged to its budget.
func decodeFront(in []byte) (list []row, charged int, err error) {
	c := Decoder(in)
	walkRowsFront(&c, &list)
	return list, Amplification*len(in) + Slack - c.spare, c.Err()
}

// modelFront is the reference encoding of a front-coded column, written from
// the rule and nothing else: the uvarint length of the longest prefix a
// string of at most internMax bytes shares with the one before (0 for a
// longer string), then the rest as a Str.
func modelFront(col []string) []byte {
	var out []byte
	prev := ""
	for _, s := range col {
		p := 0
		if len(s) <= internMax {
			for p < len(s) && p < len(prev) && s[p] == prev[p] {
				p++
			}
		}
		out = binary.AppendUvarint(out, uint64(p))
		out = binary.AppendUvarint(out, uint64(len(s)-p))
		out = append(out, s[p:]...)
		prev = s
	}
	return out
}

// checkFront holds one list to the StrAfter contract: it decodes to what the
// Str walk decodes to, its strings keep their bytes once the input is
// overwritten, its decode charged exactly the rows and the strings' whole
// lengths, and each column is encoded exactly as the reference model encodes
// it.
func checkFront(t *testing.T, list []row) {
	t.Helper()
	in := encodeRows(walkRowsFront, list)
	got, charged, err := decodeFront(in)
	if err != nil {
		t.Fatalf("decoding %q: %v", list, err)
	}
	var plain []row
	d := Decoder(encodeRows(walkRowsPlain, list))
	walkRowsPlain(&d, &plain)
	if err := d.Err(); err != nil {
		t.Fatalf("plain decoding %q: %v", list, err)
	}
	for i := range in {
		in[i] = 0xa5
	}
	if !reflect.DeepEqual(got, plain) {
		t.Fatalf("StrAfter decoded\n%q\nafter its input was overwritten; Str decoded\n%q", got, plain)
	}
	want := len(list) * int(unsafe.Sizeof(row{}))
	var ids, names []string
	for _, r := range list {
		want += len(r.ID) + len(r.Name)
		ids, names = append(ids, r.ID), append(names, r.Name)
	}
	if charged != want {
		t.Errorf("decoding %d rows charged %d bytes, want %d: the rows and every string's length", len(list), charged, want)
	}
	for _, col := range [][]string{ids, names} {
		c := Encoder(nil)
		prev := ""
		for i := range col {
			c.StrAfter(&col[i], prev)
			prev = col[i]
		}
		if m := modelFront(col); !bytes.Equal(c.Bytes(), m) {
			t.Errorf("StrAfters of %q encode to\n%x\nthe model writes\n%x", col, c.Bytes(), m)
		}
	}
}

func TestStrAfterMatchesStr(t *testing.T) {
	var bench []row
	for j := range 32 {
		bench = append(bench, row{fmt.Sprintf("BENCH-%06d", j+1), fmt.Sprintf("done-0-%02d", j)})
	}
	long := strings.Repeat("Forschungszentrum Jülich ", 4)
	for _, list := range [][]row{
		nil,
		{{"", ""}},
		{{"a", ""}, {"a", "b"}, {"", "b"}, {"ab", ""}},
		bench,
		{{long[:internMax], long[:internMax-1]}, {long[:internMax], long[:internMax]}, {long[:internMax+1], long}, {long[:internMax], long}},
	} {
		checkFront(t, list)
	}
	if plain, front := len(encodeRows(walkRowsPlain, bench)), len(encodeRows(walkRowsFront, bench)); front*2 > plain {
		t.Errorf("%d numbered rows are %d bytes front-coded, %d as Strs: want half or less", len(bench), front, plain)
	}
}

// TestStrAfterWireBytes pins the encoding: the shared prefix's length, then
// the suffix as a Str; a string longer than internMax shares nothing.
func TestStrAfterWireBytes(t *testing.T) {
	long := strings.Repeat("x", internMax+1)
	c := Encoder(nil)
	prev := ""
	for _, s := range []string{"job-9", "job-10", "job-10", "", long, long} {
		c.StrAfter(&s, prev)
		prev = s
	}
	want := []byte{0, 5, 'j', 'o', 'b', '-', '9', 4, 2, '1', '0', 6, 0, 0, 0, 0, internMax + 1}
	want = append(want, long...)
	want = append(want, 0, internMax+1)
	want = append(want, long...)
	if !bytes.Equal(c.Bytes(), want) {
		t.Errorf("StrAfters encoded %x\nwant          %x", c.Bytes(), want)
	}
}

// TestStrAfterRefusals: a prefix longer than the string before, a string
// assembled longer than internMax, or a suffix longer than the input behind
// it is malformed, and leaves its field untouched.
func TestStrAfterRefusals(t *testing.T) {
	const prev = "BENCH-000001"
	long := strings.Repeat("x", internMax)
	for name, c := range map[string]struct {
		prev string
		in   []byte
	}{
		"prefix past the string before": {prev, []byte{13, 0}},
		"prefix with no string before":  {"", []byte{1, 0}},
		"assembled past internMax":      {long, []byte{internMax, 1, 'y'}},
		"suffix longer than the rest":   {prev, []byte{6, 3, 'a'}},
		"huge prefix":                   {prev, binary.AppendUvarint(nil, 1<<62)},
		"truncated suffix length":       {prev, []byte{6, 0x80}},
	} {
		d := Decoder(c.in)
		s := "kept"
		d.StrAfter(&s, c.prev)
		if !errors.Is(d.Err(), ErrMalformed) || s != "kept" {
			t.Errorf("%s: %x decoded to %q, %v; want ErrMalformed and the field untouched", name, c.in, s, d.Err())
		}
	}
}

// TestBudgetRefusesBeforeItAllocates: a count whose elements would overdraw
// the budget fails the decode by name, leaves its field untouched and makes
// nothing; a count just inside the budget decodes; a failed read spends
// nothing; and a string's charge is its length whether or not the intern
// table already holds it.
func TestBudgetRefusesBeforeItAllocates(t *testing.T) {
	type big [64]byte
	// A list of n elements, each walked as one byte: n+1 or so input bytes,
	// n × 64 to allocate.
	list := func(n int) []byte {
		return append(binary.AppendUvarint(nil, uint64(n)), make([]byte, n)...)
	}
	decode := func(in []byte) ([]big, error) {
		var got []big
		d := Decoder(in)
		for i := range Slice(&d, &got) {
			d.Byte(&got[i][0])
		}
		return got, d.Err()
	}
	n := 1
	for (n+1)*int(unsafe.Sizeof(big{})) <= Amplification*len(list(n+1))+Slack {
		n++
	}
	for _, c := range []struct {
		n    int
		want error
	}{{n, nil}, {n + 1, ErrOverBudget}, {1 << 20, ErrOverBudget}} {
		in := list(c.n)
		got, err := decode(in)
		if !errors.Is(err, c.want) {
			t.Errorf("a %d-byte list of %d 64-byte elements: %v, want %v", len(in), c.n, err, c.want)
		}
		if c.want == nil {
			continue
		}
		allocs := testing.AllocsPerRun(10, func() { decode(in) })
		if got != nil || allocs != 0 {
			t.Errorf("a refused list of %d was made (%d elements, %.0f allocations)", c.n, len(got), allocs)
		}
	}

	d := Decoder([]byte{0x80})
	var s string
	d.Str(&s)
	if d.spare != Slack+Amplification || !errors.Is(d.Err(), ErrMalformed) {
		t.Errorf("a truncated prefix spent %d of the budget (%v)", Slack+Amplification-d.spare, d.Err())
	}
	repeated := "budget-repeated"
	e := Encoder(nil)
	e.Str(&repeated)
	for range 3 { // noted, stored, then served from the table
		d := Decoder(e.Bytes())
		d.Str(&s)
		if spent := Amplification*len(e.Bytes()) + Slack - d.spare; spent != len(repeated) {
			t.Errorf("decoding %q charged %d bytes, want its length", repeated, spent)
		}
	}
}

// FuzzStrAfterMatchesStr builds row lists from fuzz input — strings cut from
// the data at offsets that make neighbours share prefixes, some longer than
// internMax — and holds each to checkFront. The ops bytes are also decoded as
// a front-coded list as they stand: what that accepts re-encodes to no more
// bytes, which decode to the same rows and encode again to themselves.
func FuzzStrAfterMatchesStr(f *testing.F) {
	f.Add([]byte("BENCH-000001BENCH-000002done-0-01done-0-02"), []byte{12, 12, 9, 9, 12, 0, 9, 3})
	f.Add([]byte(strings.Repeat("abcdefgh", 20)), []byte{70, 65, 70, 64, 0, 1, 100, 80})
	f.Add([]byte{}, []byte{1, 0, 0, 0, 0})
	f.Add([]byte("x"), []byte{2, 0, 2, 'a', 'b', 0, 0, 2, 1, 'c', 0})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		var list []row
		for o := ops; len(o) >= 2; o = o[2:] {
			id := string(data[:min(int(o[0]), len(data))])
			name := string(data[min(int(o[1])%8, len(data)):min(int(o[1]), len(data))])
			list = append(list, row{id, name})
		}
		checkFront(t, list)

		got, _, err := decodeFront(ops)
		if err != nil {
			return
		}
		again := encodeRows(walkRowsFront, got)
		if len(again) > len(ops) {
			t.Fatalf("%x re-encodes to %d bytes, more than its %d", ops, len(again), len(ops))
		}
		back, _, err := decodeFront(again)
		if err != nil || !reflect.DeepEqual(back, got) {
			t.Fatalf("%x re-encodes to %x, which decodes to %q (%v), want %q", ops, again, back, err, got)
		}
		if third := encodeRows(walkRowsFront, back); !bytes.Equal(third, again) {
			t.Fatalf("re-encoding is not stable: %x then %x", again, third)
		}
	})
}
