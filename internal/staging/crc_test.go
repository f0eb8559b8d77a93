package staging

import (
	"hash/crc64"
	"math/rand"
	"testing"

	"unicore/internal/checksum"
)

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
			whole = checksum.Combine(whole, Checksum(piece), int64(len(piece)))
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
// the identity). Combining x^0 with an empty part across n bytes yields
// shift(n) itself. The doubling construction the algebra rests on is itself
// checked against crc64 streamed over real bytes at 2^24+3.
func TestCRCShiftLargeLengths(t *testing.T) {
	const one = uint64(1) << 63 // x^0
	shift := func(n int64) uint64 { return checksum.Combine(one, 0, n) }
	for _, n := range []int64{1 << 32, 1<<32 + 12345, 1 << 40, 1<<50 + 1} {
		a, b := n/3, n-n/3
		if got, want := checksum.Combine(shift(a), 0, b), shift(n); got != want {
			t.Fatalf("shift(%d)·shift(%d) = %#x, shift(%d) = %#x", a, b, got, n, want)
		}
		if shift(n) == shift(n&(1<<32-1)) {
			t.Fatalf("shift(%d) equals shift of its low 32 bits", n)
		}
	}
	const piece, total = 1 << 16, 1 << 24
	zeros := make([]byte, piece)
	streamed := Checksum(zeros[:3])
	ecma := crc64.MakeTable(crc64.ECMA)
	for left := total; left > 0; left -= piece {
		streamed = crc64.Update(streamed, ecma, zeros)
	}
	// crc64 of 2^24 zeros by doubling: crc(Z‖Z) = combine(crc(Z), crc(Z), |Z|).
	tail := Checksum(zeros)
	for n := int64(piece); n < total; n *= 2 {
		tail = checksum.Combine(tail, tail, n)
	}
	if got := checksum.Combine(Checksum(zeros[:3]), tail, total); got != streamed {
		t.Fatalf("2^24+3 zero bytes: combined %#x, streamed %#x", got, streamed)
	}
}
