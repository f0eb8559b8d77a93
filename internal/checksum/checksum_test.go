package checksum

import (
	"fmt"
	"hash/crc64"
	"math/rand"
	"testing"
)

// stdTable is the reference every path is checked against.
var stdTable = crc64.MakeTable(crc64.ECMA)

// path is one way to compute an update. Update is whichever path this
// machine takes; checksum_amd64_test.go adds the PCLMULQDQ kernel by name, so
// both of the amd64 paths run here whatever the CPU picked.
type path struct {
	name   string
	update func(crc uint64, p []byte) uint64
}

var paths = []path{{"Update", Update}, {"hash/crc64", updateStdlib}}

func TestUpdateMatchesStdlibAtEveryLengthAndAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	buf := make([]byte, 4096+16)
	rng.Read(buf)
	for _, p := range paths {
		for align := 0; align < 16; align++ {
			for n := 0; n <= 4096; n++ {
				crc := rng.Uint64()
				in := buf[align : align+n]
				if got, want := p.update(crc, in), crc64.Update(crc, stdTable, in); got != want {
					t.Fatalf("%s: %d bytes at alignment %d from %#x: %#x, hash/crc64 %#x", p.name, n, align, crc, got, want)
				}
			}
		}
	}
}

func TestUpdateMatchesStdlibOnLargeInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1999))
	for _, size := range []int{1 << 20, 16<<20 + 7} {
		data := make([]byte, size)
		rng.Read(data)
		want := crc64.Checksum(data, stdTable)
		for _, p := range paths {
			if got := p.update(0, data); got != want {
				t.Fatalf("%s: %d bytes: %#x, hash/crc64 %#x", p.name, size, got, want)
			}
		}
		if got := Checksum(data); got != want {
			t.Fatalf("Checksum: %d bytes: %#x, hash/crc64 %#x", size, got, want)
		}
	}
}

func TestUpdateOverASplitInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 1<<14)
	rng.Read(data)
	for _, p := range paths {
		for round := 0; round < 500; round++ {
			n := rng.Intn(len(data) + 1)
			cut := rng.Intn(n + 1)
			crc := rng.Uint64()
			got := p.update(p.update(crc, data[:cut]), data[cut:n])
			if want := crc64.Update(crc, stdTable, data[:n]); got != want {
				t.Fatalf("%s: %d bytes split at %d from %#x: %#x, hash/crc64 %#x", p.name, n, cut, crc, got, want)
			}
		}
	}
}

func TestChecksumAllocatesNothing(t *testing.T) {
	data := make([]byte, 1<<20)
	for _, n := range []int{0, 63, 64, 700, 1 << 20} {
		if a := testing.AllocsPerRun(20, func() { Checksum(data[:n]) }); a != 0 {
			t.Errorf("Checksum of %d bytes allocates %.1f times", n, a)
		}
		if a := testing.AllocsPerRun(20, func() { Update(1, data[:n]) }); a != 0 {
			t.Errorf("Update over %d bytes allocates %.1f times", n, a)
		}
	}
}

func FuzzUpdateMatchesStdlib(f *testing.F) {
	f.Add([]byte("hello, unicore"), uint8(0), uint64(0), uint16(5))
	f.Add(make([]byte, 64), uint8(3), ^uint64(0), uint16(0))
	f.Add(make([]byte, 300), uint8(15), uint64(0x6ae3efbb9dd441f3), uint16(140))
	f.Fuzz(func(t *testing.T, data []byte, off uint8, crc uint64, split uint16) {
		data = data[min(int(off), len(data)):]
		cut := int(split) % (len(data) + 1)
		want := crc64.Update(crc, stdTable, data)
		for _, p := range paths {
			if got := p.update(crc, data); got != want {
				t.Fatalf("%s: %d bytes from %#x: %#x, hash/crc64 %#x", p.name, len(data), crc, got, want)
			}
			if got := p.update(p.update(crc, data[:cut]), data[cut:]); got != want {
				t.Fatalf("%s: %d bytes split at %d from %#x: %#x, hash/crc64 %#x", p.name, len(data), cut, crc, got, want)
			}
		}
	})
}

// combineParts folds per-part checksums the way staging's Upload and
// Spool.Commit do.
func combineParts(parts [][]byte) uint64 {
	var whole uint64
	for _, p := range parts {
		whole = Combine(whole, Checksum(p), int64(len(p)))
	}
	return whole
}

func TestCRCCombineMatchesUpdateOverRandomSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(1999))
	data := make([]byte, 1<<16)
	rng.Read(data)
	for round := 0; round < 200; round++ {
		// 3–10 parts with zero-length and 1-byte parts mixed in.
		n := 3 + rng.Intn(8)
		cuts := make([]int, n+1)
		total := rng.Intn(len(data))
		for i := 1; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				cuts[i] = cuts[i-1] // zero-length part
			case 1:
				cuts[i] = min(cuts[i-1]+1, total)
			default:
				cuts[i] = cuts[i-1] + rng.Intn(total-cuts[i-1]+1)
			}
		}
		cuts[n] = total
		parts := make([][]byte, n)
		for i := range parts {
			parts[i] = data[cuts[i]:cuts[i+1]]
		}
		if got, want := combineParts(parts), Checksum(data[:total]); got != want {
			t.Fatalf("round %d cuts %v: combined %#x, crc64 %#x", round, cuts, got, want)
		}
	}
}

func FuzzCRC64Combine(f *testing.F) {
	f.Add([]byte("hello, unicore"), uint16(5), uint16(9))
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Add([]byte{0}, uint16(1), uint16(1))
	f.Add(make([]byte, 300), uint16(0), uint16(299))
	f.Fuzz(func(t *testing.T, data []byte, i, j uint16) {
		a, b := int(i), int(j)
		if len(data) > 0 {
			a, b = a%(len(data)+1), b%(len(data)+1)
		} else {
			a, b = 0, 0
		}
		if a > b {
			a, b = b, a
		}
		got := combineParts([][]byte{data[:a], data[a:b], data[b:]})
		if want := crc64.Checksum(data, stdTable); got != want {
			t.Fatalf("split %d/%d of %d bytes: combined %#x, crc64 %#x", a, b, len(data), got, want)
		}
	})
}

// BenchmarkChecksum compares each path with hash/crc64 at a small input, a
// journal record's size and a staged chunk's.
func BenchmarkChecksum(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	for _, n := range []int{64, 700, 1 << 20} {
		for _, p := range paths {
			b.Run(fmt.Sprintf("%s/%dB", p.name, n), func(b *testing.B) {
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					p.update(0, data[:n])
				}
			})
		}
	}
}
