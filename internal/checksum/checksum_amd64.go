package checksum

import "encoding/binary"

// hasCLMUL reports PCLMULQDQ: CPUID leaf 1, ECX bit 1.
var hasCLMUL = cpuid1ECX()&(1<<1) != 0

// foldKeys are the kernel's multipliers, x^e mod P in hash/crc64's
// bit-reversed form. A 16-byte block loaded little-endian holds the message
// polynomial x^64·lo + hi (each qword bit-reversed), and a carry-less product
// of two bit-reversed qwords, read back as such a block, is x times the true
// product: its 127 bits sit one place off the block's x^0. So advancing a
// block across d further bits multiplies its low qword by x^(d+63) and its
// high qword by x^(d-1): x^575 and x^511 across the 512 bits of a four-lane
// step, x^191 and x^127 across one 16-byte block.
var foldKeys = [4]uint64{xPow(575), xPow(511), xPow(191), xPow(127)}

func update(crc uint64, p []byte) uint64 {
	if hasCLMUL {
		return updateCLMUL(crc, p)
	}
	return updateStdlib(crc, p)
}

// updateCLMUL folds the longest 16-byte multiple of p into one block whose
// checksum from a zero register is the register after that prefix (p's
// first 8 bytes carry the inverted initial CRC into the fold), then lets
// hash/crc64 reduce that block and run over the rest. The caller must have
// checked hasCLMUL. Inputs under 64 bytes go to hash/crc64 whole.
func updateCLMUL(crc uint64, p []byte) uint64 {
	if len(p) < 64 {
		return updateStdlib(crc, p)
	}
	n := len(p) &^ 15
	lo, hi := foldCLMUL(^crc, p[:n], &foldKeys)
	var folded [16]byte
	binary.LittleEndian.PutUint64(folded[:8], lo)
	binary.LittleEndian.PutUint64(folded[8:], hi)
	// Update inverts on the way in and out: from ^0 it starts the register
	// at zero, and the second call picks up the first's register.
	return updateStdlib(updateStdlib(^uint64(0), folded[:]), p[n:])
}

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// foldCLMUL folds p — at least 64 bytes, a multiple of 16 — with crc XORed
// into its first 8 bytes, into one 16-byte block congruent to it modulo the
// CRC polynomial, returned as its two little-endian qwords.
//
//go:noescape
func foldCLMUL(crc uint64, p []byte, keys *[4]uint64) (lo, hi uint64)
