package bin

import (
	"runtime"
	"strings"
	"testing"
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

// decodeChunks is Strs decoding in, noting each chunk the arena starts.
func decodeChunks(in []byte) ([]string, []chunk, error) {
	var list []string
	var chunks []chunk
	c := Decoder(in)
	for i := range Slice(&c, &list) {
		before := c.arena.Len()
		c.Str(&list[i])
		if n := len(list[i]); n > 0 && (before == 0 || c.arena.Len() != before+n) {
			chunks = append(chunks, chunk{c.arena.Cap(), len(c.b) + n})
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

// TestArenaAllocates counts what the arena costs: a message whose only
// string has n bytes allocates once, exactly n bytes (n is a size class
// here), which is what a string conversion of the field cost; and a message
// of many strings allocates a number of chunks logarithmic in its size.
func TestArenaAllocates(t *testing.T) {
	for _, n := range []int{16, 48, 1024, 4096} {
		s := strings.Repeat("u", n)
		e := Encoder(nil)
		e.Str(&s)
		in := e.Bytes()
		decodeOne := func() {
			var got string
			c := Decoder(in)
			c.Str(&got)
			if c.Err() != nil || len(got) != n {
				t.Fatalf("decoded %d bytes: %v", len(got), c.Err())
			}
		}
		if allocs := testing.AllocsPerRun(100, decodeOne); allocs != 1 {
			t.Errorf("decoding one %d-byte string allocates %.0f times, want 1", n, allocs)
		}
		const runs = 100
		prev := runtime.GOMAXPROCS(1)
		decodeOne()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			decodeOne()
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(prev)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per != uint64(n) {
			t.Errorf("decoding one %d-byte string allocates %d bytes, want %d", n, per, n)
		}
	}

	list := make([]string, 256)
	for i := range list {
		list[i] = strings.Repeat("v", 1+i%23)
	}
	in := encodeStrs(list)
	if allocs := testing.AllocsPerRun(20, func() {
		var got []string
		c := Decoder(in)
		c.Strs(&got)
	}); allocs > 12 {
		t.Errorf("decoding %d strings (%d bytes) allocates %.0f times, want the list and at most 11 chunks", len(list), len(in), allocs)
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
