// Package checksum owns the repository's one checksum: CRC-64/ECMA, the
// value hash/crc64 computes with its ECMA table. Every checksummed byte goes
// through Update — the staging chunk and whole-file sums, the download's
// running CRC, the vfs file sum and the journal record frame — so the tiers
// compare checksums with each other and with anyone else's hash/crc64.
//
// On amd64 with PCLMULQDQ, Update folds inputs of 64 bytes or more by
// carry-less multiplication, 64 bytes a step (checksum_amd64.s), and hands
// the 16 folded bytes and the short tail to hash/crc64; elsewhere it is
// hash/crc64 itself. The values are hash/crc64's on every path, bit for bit.
//
// Combine derives crc64(A‖B) from crc64(A), crc64(B) and len(B), which lets a
// chunked transfer build its whole-file checksum from per-chunk sums, so each
// tier checksums a byte once.
package checksum

import "hash/crc64"

// table is hash/crc64's ECMA table, the fallback path and the finisher of the
// folded one.
var table = crc64.MakeTable(crc64.ECMA)

// Update returns crc advanced over p: crc64.Update(crc, ECMA table, p).
func Update(crc uint64, p []byte) uint64 { return update(crc, p) }

// Checksum returns the CRC-64/ECMA of p: crc64.Checksum(p, ECMA table).
func Checksum(p []byte) uint64 { return update(0, p) }

// updateStdlib is hash/crc64's table-driven update.
func updateStdlib(crc uint64, p []byte) uint64 { return crc64.Update(crc, table, p) }

// Combine returns crc64(A‖B) given crc64(A), crc64(B) and len(B). This is
// zlib's crc32_combine carried over to CRC-64/ECMA: with A's checksum
// advanced across len(B) further bytes — a multiplication by x^(8·len(B))
// modulo the CRC polynomial — crc64(A‖B) = advance(crc64(A)) XOR crc64(B).
func Combine(crcA, crcB uint64, lenB int64) uint64 {
	return crcMul(xPow(8*uint64(lenB)), crcA) ^ crcB
}

// Polynomials are held the way hash/crc64 computes, bit-reversed: bit 63 is
// x^0.

// crcMul multiplies two polynomials over GF(2) modulo the CRC polynomial.
func crcMul(a, b uint64) uint64 {
	var p uint64
	for m := uint64(1) << 63; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crc64.ECMA
		} else {
			b >>= 1
		}
	}
	return p
}

// xPow returns x^e mod the CRC polynomial by square-and-multiply in O(log e).
// x^(8n) is the operator that advances a checksum across n further bytes:
// ~2 µs for a 1 MiB chunk. The fold kernel's constants are x^e for the
// strides it folds across.
func xPow(e uint64) uint64 {
	p := uint64(1) << 63  // x^0
	sq := uint64(1) << 62 // x^1
	for ; e > 0; e >>= 1 {
		if e&1 != 0 {
			p = crcMul(p, sq)
		}
		sq = crcMul(sq, sq)
	}
	return p
}
