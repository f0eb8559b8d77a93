package bin

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// decodeStr decodes a one-Str message, then overwrites its input, so a
// string that aliased it would show.
func decodeStr(t testing.TB, s string) string {
	t.Helper()
	e := Encoder(nil)
	e.Str(&s)
	in := e.Bytes()
	var got string
	c := Decoder(in)
	c.Str(&got)
	if err := c.Err(); err != nil {
		t.Fatalf("decoding %q: %v", s, err)
	}
	for i := range in {
		in[i] = 0xa5
	}
	return got
}

// checkTable holds the table's bound: no entry is longer than internMax.
func checkTable(t testing.TB) {
	t.Helper()
	for i := range internTab {
		if e := internTab[i].Load(); e != nil && (*e == "" || len(*e) > internMax) {
			t.Fatalf("slot %d holds a %d-byte string", i, len(*e))
		}
	}
}

// TestRepeatedStringAllocatesNothing is the interning gate: a message of
// strings the process has decoded before — a list reply's job IDs and
// states — allocates only its list once warm, whether each string is a Str
// or a Sym.
func TestRepeatedStringAllocatesNothing(t *testing.T) {
	list := make([]stamped, 48)
	for i := range list {
		list[i].S = []string{fmt.Sprintf("REPEAT-T3E-%06d", i/2), "successful", "T3E"}[i%3]
	}
	for _, sym := range []bool{false, true} {
		walk := walkPlain
		if sym {
			walk = walkSym
		}
		in := encodeWith(walk, list)
		decodeOne := func() {
			var got []stamped
			c := Decoder(in)
			if sym { // direct calls: through a function value the codec escapes
				walkSym(&c, &got)
			} else {
				walkPlain(&c, &got)
			}
			if c.Err() != nil || len(got) != len(list) {
				t.Fatalf("decoded %d elements: %v", len(got), c.Err())
			}
		}
		decodeOne()
		decodeOne()
		if n := testing.AllocsPerRun(100, decodeOne); n != 1 {
			t.Errorf("decoding %d repeated strings (Sym %v) allocates %.0f times once warm, want 1: the list", len(list), sym, n)
		}
	}
}

// TestInternSlotCollisions forces strings into one pair of slots, found by
// brute force: more of them than the pair holds, some with the home slot
// before or after it. However they evict each other, each decodes to its own
// bytes, and two that share a home slot both stay interned.
func TestInternSlotCollisions(t *testing.T) {
	home := internHash([]byte("collide")) % internSlots
	var same, near []string
	for i := 0; len(same) < 4 || len(near) < 4; i++ {
		s := fmt.Sprintf("collide-%d", i)
		switch internHash([]byte(s)) % internSlots {
		case home:
			if len(same) < 4 {
				same = append(same, s)
			}
		case (home + 1) % internSlots, (home + internSlots - 1) % internSlots:
			if len(near) < 4 {
				near = append(near, s)
			}
		}
	}
	for _, list := range [][]string{same[:2], same, append(same[:2:2], near...), append(same, near...)} {
		for range 8 {
			for _, s := range list {
				if got := decodeStr(t, s); got != s {
					t.Fatalf("%q decoded as %q", s, got)
				}
			}
		}
	}
	checkTable(t)

	// Two strings alone in their home slot's pair: once both are seen
	// twice, each decodes to the same string every time.
	for _, i := range []uint64{home, (home + 1) % internSlots} {
		internTab[i].Store(nil)
	}
	a, b := same[0], same[1]
	for range 2 {
		decodeStr(t, a)
		decodeStr(t, b)
	}
	pa, pb := unsafe.StringData(decodeStr(t, a)), unsafe.StringData(decodeStr(t, b))
	for range 8 {
		if unsafe.StringData(decodeStr(t, a)) != pa || unsafe.StringData(decodeStr(t, b)) != pb {
			t.Fatal("a string sharing its home slot was evicted by the other")
		}
	}
}

// TestLongStringsAreNotInterned: a string of internMax+1 bytes is cut from
// the arena every time, however often it is seen.
func TestLongStringsAreNotInterned(t *testing.T) {
	s := strings.Repeat("L", internMax+1)
	copies := map[*byte]bool{}
	for range 4 {
		copies[unsafe.StringData(decodeStr(t, s))] = true
	}
	if len(copies) != 4 {
		t.Errorf("four decodes of a %d-byte string made %d copies, want 4", len(s), len(copies))
	}
	longest := strings.Repeat("M", internMax)
	decodeStr(t, longest)
	decodeStr(t, longest)
	if unsafe.StringData(decodeStr(t, longest)) != unsafe.StringData(decodeStr(t, longest)) {
		t.Errorf("a %d-byte string is not interned", internMax)
	}
	checkTable(t)
}

// TestConcurrentInterning: eight goroutines decode overlapping sets of
// strings, so they race to mark, store and read the same slots; every
// decoded string equals its input. Run it under -race.
func TestConcurrentInterning(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 50 {
				list := make([]string, 24)
				for i := range list {
					// Half the set is shared by all workers, a quarter by a
					// neighbour, and the rest the worker's own.
					switch i % 4 {
					case 0, 1:
						list[i] = fmt.Sprintf("shared-%d", i)
					case 2:
						list[i] = fmt.Sprintf("pair-%d-%d", w/2, i)
					default:
						list[i] = fmt.Sprintf("own-%d-%d-%d", w, round%5, i)
					}
				}
				in := encodeStrs(list)
				want := string(in)
				var got []string
				c := Decoder(in)
				c.Strs(&got)
				if c.Err() != nil || string(in) != want {
					t.Errorf("decoding %q: %v", list, c.Err())
					return
				}
				for i := range in {
					in[i] = 0
				}
				for i := range list {
					if got[i] != list[i] {
						t.Errorf("worker %d: %q decoded as %q", w, list[i], got[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	checkTable(t)
}

// FuzzInternedDecodeMatchesInput decodes random string lists three times
// over — a first sighting, a second, and a hit — interleaved with strings
// that thrash the table, overwriting the input after each decode: every
// decoded string equals the bytes it was decoded from.
func FuzzInternedDecodeMatchesInput(f *testing.F) {
	f.Add([]byte("FZJ-T3E-000001T3Estatea1done"), []byte{14, 3, 5, 2, 4}, uint16(0))
	f.Add([]byte(strings.Repeat("abcdefgh", 12)), []byte{64, 65, 1, 0, 1}, uint16(513))
	f.Add([]byte{}, []byte{0, 0}, uint16(7))
	f.Fuzz(func(t *testing.T, data, sizes []byte, thrash uint16) {
		list := make([]string, 0, len(sizes))
		for _, n := range sizes {
			n := min(int(n), len(data))
			list = append(list, string(data[:n]))
			data = data[n:]
		}
		for round := range 3 {
			in := encodeStrs(list)
			var got []string
			c := Decoder(in)
			c.Strs(&got)
			if err := c.Err(); err != nil {
				t.Fatalf("decoding %q: %v", list, err)
			}
			for i := range in {
				in[i] ^= 0xff
			}
			for i := range list {
				if got[i] != list[i] {
					t.Fatalf("round %d: %q decoded as %q", round, list[i], got[i])
				}
			}
			for i := range 16 {
				decodeStr(t, fmt.Sprintf("thrash-%d-%d", thrash, i))
			}
		}
		checkTable(t)
	})
}
