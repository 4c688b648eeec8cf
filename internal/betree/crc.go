package betree

import "hash/crc32"

// CRC combination, after zlib's crc32_combine: the CRC-32 (IEEE) of a ++ b
// from the CRCs of a and b and the length of b. A node image carries a
// whole-image checksum, a shell checksum and one per partition, and the
// partitions and the shell tile the image, so combining lets every byte be
// hashed once on the host while every checksum is still compared.

// x2nTable[k] is x^(2^k) modulo the CRC-32 polynomial, in crc32.IEEE's
// reflected bit order (bit 31 holds x^0).
var x2nTable = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k] = p
		p = multModP(p, p)
	}
	return t
}()

// multModP returns a·b modulo the CRC-32 polynomial.
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; a != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			a ^= m
		}
		b = b>>1 ^ crc32.IEEE&-(b&1)
	}
	return p
}

// x8nModP returns x^(8n) modulo the polynomial: what appending n bytes
// multiplies a CRC by.
func x8nModP(n int) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; n != 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = multModP(x2nTable[k&31], p)
		}
	}
	return p
}

// crc32Combine returns crc32.ChecksumIEEE(a ++ b) given crcA, the checksum
// of a, crcB, the checksum of b, and lenB = len(b).
func crc32Combine(crcA, crcB uint32, lenB int) uint32 {
	if lenB == 0 {
		return crcA
	}
	return multModP(x8nModP(lenB), crcA) ^ crcB
}

// span is one byte range [off, off+len) of a node image.
type span struct{ off, len int }

// sumRanges returns the checksum of data[from:to] and stores in sums[i]
// the checksum of rs[i], each of which lies inside data. When the ranges
// lie in [from, to) in ascending order without overlapping, as
// serializeNode lays partitions out, each byte is hashed once: the gaps
// between them are hashed on the way and everything is combined. Ranges in
// any other order, which only a damaged image carries, are hashed apart
// from the whole, so each checksum still covers exactly its own bytes.
func sumRanges(data []byte, from, to int, rs []span, sums []uint32) uint32 {
	pos := from
	for _, r := range rs {
		if r.off < pos || r.off+r.len > to {
			for i, r := range rs {
				sums[i] = crc32.ChecksumIEEE(data[r.off : r.off+r.len])
			}
			return crc32.ChecksumIEEE(data[from:to])
		}
		pos = r.off + r.len
	}
	var crc uint32
	pos = from
	for i, r := range rs {
		crc = crc32Combine(crc, crc32.ChecksumIEEE(data[pos:r.off]), r.off-pos)
		sums[i] = crc32.ChecksumIEEE(data[r.off : r.off+r.len])
		crc = crc32Combine(crc, sums[i], r.len)
		pos = r.off + r.len
	}
	return crc32Combine(crc, crc32.ChecksumIEEE(data[pos:to]), to-pos)
}
