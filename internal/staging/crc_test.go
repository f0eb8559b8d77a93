package staging

import (
	"hash/crc64"
	"math/rand"
	"testing"
)

// combineParts folds per-part checksums the way Upload and Spool.Commit do.
func combineParts(parts [][]byte) uint64 {
	var whole uint64
	for _, p := range parts {
		whole = crcCombine(whole, Checksum(p), int64(len(p)))
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

func TestCRCCombineOnChunkGrid(t *testing.T) {
	// The upload shape: full chunks on a grid plus a short last chunk.
	rng := rand.New(rand.NewSource(7))
	const chunk = 4096
	for _, size := range []int{0, 1, chunk - 1, chunk, chunk + 1, 5*chunk + 17, 8 * chunk} {
		data := make([]byte, size)
		rng.Read(data)
		var whole uint64
		for off := 0; off < size; off += chunk {
			piece := data[off:min(off+chunk, size)]
			whole = crcCombine(whole, Checksum(piece), int64(len(piece)))
		}
		if want := Checksum(data); whole != want {
			t.Fatalf("size %d: combined %#x, crc64 %#x", size, whole, want)
		}
	}
}

// Lengths at and beyond 2^32 cannot be checked against real buffers in a
// unit test's time, so they are checked against the operator algebra:
// advancing by a+b must equal advancing by a then by b, which a length
// truncated to 32 bits anywhere would break (shift(2^32) would collapse to
// the identity). The doubling construction the algebra rests on is itself
// checked against crc64 streamed over real bytes at 2^24+3.
func TestCRCShiftLargeLengths(t *testing.T) {
	for _, n := range []int64{1 << 32, 1<<32 + 12345, 1 << 40, 1<<50 + 1} {
		a, b := n/3, n-n/3
		if got, want := crcMul(crcShift(a), crcShift(b)), crcShift(n); got != want {
			t.Fatalf("shift(%d)·shift(%d) = %#x, shift(%d) = %#x", a, b, got, n, want)
		}
		if crcShift(n) == crcShift(n&(1<<32-1)) {
			t.Fatalf("shift(%d) equals shift of its low 32 bits", n)
		}
	}
	const piece, total = 1 << 16, 1 << 24
	zeros := make([]byte, piece)
	streamed := Checksum(zeros[:3])
	for left := total; left > 0; left -= piece {
		streamed = crc64.Update(streamed, crcTable, zeros)
	}
	// crc64 of 2^24 zeros by doubling: crc(Z‖Z) = combine(crc(Z), crc(Z), |Z|).
	tail := Checksum(zeros)
	for n := int64(piece); n < total; n *= 2 {
		tail = crcCombine(tail, tail, n)
	}
	if got := crcCombine(Checksum(zeros[:3]), tail, total); got != streamed {
		t.Fatalf("2^24+3 zero bytes: combined %#x, streamed %#x", got, streamed)
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
		if want := crc64.Checksum(data, crcTable); got != want {
			t.Fatalf("split %d/%d of %d bytes: combined %#x, crc64 %#x", a, b, len(data), got, want)
		}
	})
}
