package betree

import (
	"hash/crc32"
	"sort"
	"testing"

	"betrfs/internal/sim"
)

// TestCRC32Combine cuts random inputs at random points and checks that
// folding the pieces' checksums with crc32Combine gives
// crc32.ChecksumIEEE of the whole, empty pieces included.
func TestCRC32Combine(t *testing.T) {
	rnd := sim.NewRand(1)
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, rnd.Intn(1<<16))
		for i := range data {
			data[i] = byte(rnd.Intn(256))
		}
		cuts := []int{0, len(data)}
		for i := rnd.Intn(8); i > 0; i-- {
			cuts = append(cuts, rnd.Intn(len(data)+1))
		}
		sort.Ints(cuts)
		var crc uint32
		for i := 1; i < len(cuts); i++ {
			piece := data[cuts[i-1]:cuts[i]]
			crc = crc32Combine(crc, crc32.ChecksumIEEE(piece), len(piece))
		}
		if want := crc32.ChecksumIEEE(data); crc != want {
			t.Fatalf("trial %d: %d bytes cut at %v: combined %08x, want %08x", trial, len(data), cuts, crc, want)
		}
	}
}

// TestSumRanges checks sumRanges against direct hashing, for random
// ranges in ascending order (the combining path) and in random order,
// overlapping or not (the fallback).
func TestSumRanges(t *testing.T) {
	rnd := sim.NewRand(2)
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 1+rnd.Intn(1<<15))
		for i := range data {
			data[i] = byte(rnd.Intn(256))
		}
		from := rnd.Intn(len(data))
		to := from + rnd.Intn(len(data)-from+1)
		var rs []span
		if trial%2 == 0 {
			pos := from
			for pos < to && rnd.Intn(6) > 0 {
				off := pos + rnd.Intn(to-pos+1)
				n := rnd.Intn(to - off + 1)
				rs = append(rs, span{off, n})
				pos = off + n
			}
		} else {
			for i := rnd.Intn(6); i > 0; i-- {
				off := rnd.Intn(len(data) + 1)
				rs = append(rs, span{off, rnd.Intn(len(data) - off + 1)})
			}
		}
		sums := make([]uint32, len(rs))
		if got, want := sumRanges(data, from, to, rs, sums), crc32.ChecksumIEEE(data[from:to]); got != want {
			t.Fatalf("trial %d: [%d,%d) with ranges %v: %08x, want %08x", trial, from, to, rs, got, want)
		}
		for i, r := range rs {
			if want := crc32.ChecksumIEEE(data[r.off : r.off+r.len]); sums[i] != want {
				t.Fatalf("trial %d: range %v: %08x, want %08x", trial, r, sums[i], want)
			}
		}
	}
}
