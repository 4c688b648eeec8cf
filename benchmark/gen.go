package main

import (
	"bytes"
	"encoding/binary"
)

// Everything the stack under test receives is generated here from --seed:
// names, offsets, op mixes and file contents. Content is a pure function
// of (seed, file identity, block, version), so verification regenerates
// the expected bytes instead of keeping a second copy of any file.

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const golden = 0x9e3779b97f4a7c15

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: mix64(seed*golden+stream) | 1}
}

func (r *rng) next() uint64 {
	r.s += golden
	return mix64(r.s)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for every
// n this benchmark uses.
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// contentKey names one version of one block of one file.
func contentKey(seed, fileID uint64, block int64, version uint32) uint64 {
	return mix64(mix64(seed^fileID*golden) + uint64(block)*golden + uint64(version)<<40)
}

// fill writes the content stream of key into buf.
func fill(buf []byte, key uint64) {
	x := key
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		x += golden
		binary.LittleEndian.PutUint64(buf[i:], mix64(x))
	}
	if i < len(buf) {
		var tail [8]byte
		x += golden
		binary.LittleEndian.PutUint64(tail[:], mix64(x))
		copy(buf[i:], tail[:])
	}
}

// checker regenerates expected bytes into a scratch buffer and compares.
type checker struct{ scratch []byte }

// block reports whether got equals the content stream of key.
func (c *checker) block(got []byte, key uint64) bool {
	if cap(c.scratch) < len(got) {
		c.scratch = make([]byte, len(got))
	}
	want := c.scratch[:len(got)]
	fill(want, key)
	return bytes.Equal(got, want)
}

// fileID hashes a path into the identity contentKey takes.
func fileID(path string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(path); i++ {
		h = (h ^ uint64(path[i])) * 1099511628211
	}
	return h
}
