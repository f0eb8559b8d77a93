package bin

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// encodeStrs is a Strs message holding list.
func encodeStrs(list []string) []byte {
	c := Encoder(nil)
	c.Strs(&list)
	return c.Bytes()
}

// chunk is one arena chunk a decoder started: its capacity, and the input
// left to read (the string that started it included) when it was made.
type chunk struct{ cap, left int }

// decodeChunks is Strs decoding in, noting each chunk the arena starts. A
// string served from the intern table leaves the arena as it was.
func decodeChunks(in []byte) ([]string, []chunk, error) {
	var list []string
	var chunks []chunk
	var at *byte // the current chunk's first byte
	c := Decoder(in)
	for i := range Slice(&c, &list) {
		c.Str(&list[i])
		if c.arena.Len() == 0 {
			continue
		}
		if p := unsafe.StringData(c.arena.String()); p != at {
			at = p
			chunks = append(chunks, chunk{c.arena.Cap(), len(c.b) + len(list[i])})
		}
	}
	return list, chunks, c.Err()
}

// sizeClass is the capacity a fresh arena asked for n bytes gets: n rounded
// up to the allocator's size class.
func sizeClass(n int) int {
	var b strings.Builder
	b.Grow(n)
	return b.Cap()
}

// checkArena is the arena's safety and size contract for one Strs message:
// the decoded strings equal their source and keep their bytes when the
// input is overwritten, no chunk is larger than the input left when it was
// made, and all the chunks together hold less than twice the input.
func checkArena(t *testing.T, list []string) {
	t.Helper()
	in := encodeStrs(list)
	got, chunks, err := decodeChunks(in)
	if err != nil {
		t.Fatalf("decoding %q: %v", list, err)
	}
	var viaStrs []string
	d := Decoder(in)
	d.Strs(&viaStrs)
	if err := d.Err(); err != nil {
		t.Fatalf("Strs decoding %q: %v", list, err)
	}
	for i := range in {
		in[i] = 0xa5
	}
	if len(got) != len(list) || len(viaStrs) != len(list) {
		t.Fatalf("decoded %d and %d strings, want %d", len(got), len(viaStrs), len(list))
	}
	for i := range list {
		if got[i] != list[i] || viaStrs[i] != list[i] {
			t.Fatalf("string %d reads %q / %q after its input was overwritten, want %q", i, got[i], viaStrs[i], list[i])
		}
	}
	total := 0
	for _, ch := range chunks {
		total += ch.cap
		if ch.cap > sizeClass(ch.left) {
			t.Errorf("a chunk of %d bytes was made with %d bytes of input left", ch.cap, ch.left)
		}
	}
	if len(chunks) > 0 {
		last := chunks[len(chunks)-1]
		if slack := sizeClass(last.left) - last.left; total >= 2*len(in)+slack {
			t.Errorf("chunks %v hold %d bytes for a %d-byte message, want fewer than twice that", chunks, total, len(in))
		}
	}
}

func TestDecodedStringsOutliveTheirInput(t *testing.T) {
	long := strings.Repeat("Forschungszentrum Jülich ", 40)
	for _, list := range [][]string{
		{"FZJ-T3E-000001"},
		{"", "a", "", "bc", "def", ""},
		{"FZJ-T3E-000001", "T3E", "state", "a1", "done", "FZJ-T3E-000001", "T3E", "state", "a2", ""},
		{long, "x", long[:7], long},
		{"x", long},
		// Each string a little too long for what its chunk has left, so
		// every chunk is abandoned part-empty: 168 chunk bytes for a 98-byte
		// message. This is why the bound is twice the input, not the input.
		{"a", "b", "cc", "ddd", "eeeeee", "fffffffffff", strings.Repeat("g", 22), strings.Repeat("h", 43)},
	} {
		checkArena(t, list)
	}
}

// freshSeq numbers strings no decoder in this test binary has seen, however
// often a test runs (go test -count).
var freshSeq int

func fresh() int {
	freshSeq++
	return freshSeq
}

// TestArenaAllocates counts what the arena costs: a message whose only
// string has n bytes allocates once, exactly n bytes (n is a size class
// here), which is what a string conversion of the field cost; and a message
// of many strings allocates a number of chunks logarithmic in its size. Every
// string is fresh, unique to its run, so none is served from the intern
// table; a repeated one is, and costs nothing.
func TestArenaAllocates(t *testing.T) {
	const runs = 100
	for _, n := range []int{16, 48, 1024, 4096} {
		// AllocsPerRun calls once more than it is asked to, to warm up.
		ins := make([][]byte, 2*runs+2)
		for i := range ins {
			s := fmt.Sprintf("arena-%0*d", n-len("arena-"), fresh())
			e := Encoder(nil)
			e.Str(&s)
			ins[i] = e.Bytes()
		}
		next := 0
		decodeOne := func() {
			var got string
			c := Decoder(ins[next])
			next++
			c.Str(&got)
			if c.Err() != nil || len(got) != n {
				t.Fatalf("decoded %d bytes: %v", len(got), c.Err())
			}
		}
		if allocs := testing.AllocsPerRun(runs, decodeOne); allocs != 1 {
			t.Errorf("decoding one fresh %d-byte string allocates %.0f times, want 1", n, allocs)
		}
		prev := runtime.GOMAXPROCS(1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			decodeOne()
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(prev)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per != uint64(n) {
			t.Errorf("decoding one fresh %d-byte string allocates %d bytes, want %d", n, per, n)
		}
	}

	repeated := "arena-repeated"
	e := Encoder(nil)
	e.Str(&repeated)
	in := e.Bytes()
	decodeRepeated := func() string {
		var got string
		c := Decoder(in)
		c.Str(&got)
		if c.Err() != nil || got != repeated {
			t.Fatalf("decoded %q: %v", got, c.Err())
		}
		return got
	}
	decodeRepeated() // its first sighting, cut from the arena
	want := unsafe.StringData(decodeRepeated())
	if allocs := testing.AllocsPerRun(runs, func() {
		if unsafe.StringData(decodeRepeated()) != want {
			t.Fatal("a repeated string decoded to a new copy")
		}
	}); allocs != 0 {
		t.Errorf("decoding a repeated one-string message allocates %.0f times, want 0", allocs)
	}

	// Fresh strings of 8 to 30 bytes, each unique to its run.
	const perMessage = 256
	ins := make([][]byte, runs/5+1)
	for r := range ins {
		list := make([]string, perMessage)
		for i := range list {
			list[i] = fmt.Sprintf("%08x", fresh()) + strings.Repeat("v", i%23)
		}
		ins[r] = encodeStrs(list)
	}
	next := 0
	if allocs := testing.AllocsPerRun(runs/5, func() {
		var got []string
		c := Decoder(ins[next])
		next++
		c.Strs(&got)
	}); allocs > 12 {
		t.Errorf("decoding %d fresh strings (%d bytes) allocates %.0f times, want the list and at most 11 chunks", perMessage, len(ins[0]), allocs)
	}
}

// FuzzStrsOutliveTheirInput runs random string lists through Strs: each is
// decoded, its input overwritten, and the strings compared with their source;
// the chunks the arena made are held to their bounds.
func FuzzStrsOutliveTheirInput(f *testing.F) {
	f.Add([]byte("FZJ-T3E-000001T3Estatea1done"), []byte{14, 3, 5, 2, 4})
	f.Add([]byte(strings.Repeat("abcdefgh", 32)), []byte{1, 1, 2, 3, 6, 11, 22, 43, 0, 86})
	f.Add([]byte{}, []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		list := make([]string, 0, len(sizes))
		for _, n := range sizes {
			n := min(int(n), len(data))
			list = append(list, string(data[:n]))
			data = data[n:]
		}
		checkArena(t, list)
	})
}
