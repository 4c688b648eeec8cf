package blobfs

import (
	"reflect"
	"testing"
)

// FuzzDecodeNode feeds arbitrary payloads to the node decoder. Every input
// must come back as an error or as a node that maps no more blocks than
// the area holds, all inside it, and that re-encodes to a payload decoding
// to the same node. The seed corpus in testdata/fuzz holds well-formed
// files and directories and the damaged shapes a CRC-valid blob can still
// carry: runs of 2^22 and 2^40 blocks, a run count of 2^40, overlapping and
// overflowing runs, a huge name length, truncation and trailing bytes.
func FuzzDecodeNode(f *testing.F) {
	const area = 1 << 16
	f.Fuzz(func(t *testing.T, payload []byte) {
		n, err := decodeNode(7, payload, area)
		if err != nil {
			return
		}
		if len(n.Blocks) > area {
			t.Fatalf("decoded %d blocks from an area of %d", len(n.Blocks), area)
		}
		for l, p := range n.Blocks {
			if l < 0 || p < 0 || p >= area {
				t.Fatalf("block %d maps to %d, outside the area", l, p)
			}
		}
		again, err := decodeNode(7, encodeNode(n), area)
		if err != nil {
			t.Fatalf("re-encoded node does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, n) {
			t.Fatalf("round trip changed the node:\n got  %+v\n want %+v", again, n)
		}
	})
}

// TestBlobRejectsDamage seals a node and checks that openBlob refuses a
// wrong magic, a wrong inode, a flipped payload bit and a short read.
func TestBlobRejectsDamage(t *testing.T) {
	n := NewNode(9, true, 5)
	n.Children["x"] = Child{Ino: 10}
	n.Blocks[0] = 3
	blob := sealBlob(0xabcd, 9, encodeNode(n))
	payload, err := openBlob(0xabcd, 9, blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeNode(9, payload, 8)
	if err != nil {
		t.Fatal(err)
	}
	n.Dirty = false
	if !reflect.DeepEqual(got, n) {
		t.Fatalf("decoded %+v, want %+v", got, n)
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)-1] ^= 1
	for name, try := range map[string]func() error{
		"magic":  func() error { _, err := openBlob(0xabce, 9, blob); return err },
		"inode":  func() error { _, err := openBlob(0xabcd, 8, blob); return err },
		"crc":    func() error { _, err := openBlob(0xabcd, 9, flipped); return err },
		"length": func() error { _, err := openBlob(0xabcd, 9, blob[:len(blob)-1]); return err },
	} {
		if try() == nil {
			t.Errorf("%s damage accepted", name)
		}
	}
}
