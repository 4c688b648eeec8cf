package betree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"betrfs/internal/sim"
)

// FuzzDeserializeNode feeds arbitrary node images to the full-image
// decoder, each twice: as given, and resealed (every checksum recomputed
// over the bytes it covers) so that mutations reach the decoding behind
// the checksums. Every input must give an error wrapping ErrChecksum, or a
// node that serializes and decodes back to the same height, id, keys and
// values. The seed corpus in testdata/fuzz holds a leaf with lifted keys
// and aligned page values, an interior node with point and range
// messages, a truncated image, an image framed as the node-compression
// format this tree no longer has, and three damaged leaves a resealed
// image can carry: keys out of order (one shorter than the lifted prefix
// of its neighbours, which re-serialization cannot strip), a basement
// count of 2^32-1 and a basement entry count of 2^32-1 (neither may size
// an allocation).
func FuzzDeserializeNode(f *testing.F) {
	env := sim.NewEnv(1)
	f.Fuzz(func(t *testing.T, img []byte) {
		checkDecodes(t, env, img)
		checkDecodes(t, env, reseal(img))
	})
}

func checkDecodes(t *testing.T, env *sim.Env, img []byte) {
	n, err := deserializeNode(env, img)
	if err != nil {
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("decode error does not wrap ErrChecksum: %v", err)
		}
		return
	}
	cfg := DefaultConfig()
	back, err := deserializeNode(env, serializeNode(env, &cfg, n, nil))
	if err != nil {
		t.Fatalf("re-serialized node does not decode: %v", err)
	}
	if got, want := nodeContents(back), nodeContents(n); !bytes.Equal(got, want) {
		t.Fatalf("round trip changed the node:\n got  %q\n want %q", got, want)
	}
}

// nodeContents renders what a round trip must keep: height, id, and the
// keys and values of a leaf, or the pivots, children and messages of an
// interior node.
func nodeContents(n *node) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "h%d id%d;", n.height, n.id)
	for _, e := range leafEntries(n) {
		fmt.Fprintf(&b, "%q=%q;", e.key, e.val.Bytes())
	}
	fmt.Fprintf(&b, "%q %v;", n.pivots, n.children)
	for ci := range n.bufs {
		for _, list := range [2][]*Msg{n.bufs[ci].points, n.bufs[ci].ranges} {
			for _, m := range list {
				fmt.Fprintf(&b, "%d:%d/%d %q-%q@%d=%q;", ci, m.Type, m.MSN, m.Key, m.EndKey, m.Off, m.Val.Bytes())
			}
		}
	}
	return b.Bytes()
}

// reseal returns a copy of img with its checksums recomputed where the
// header's lengths allow, in the order serializeNode writes them: each
// basement's over its small section and page range, the shell's, then the
// whole image's.
func reseal(img []byte) []byte {
	img = append([]byte(nil), img...)
	u32 := func(off int) int { return int(binary.BigEndian.Uint32(img[off:])) }
	if len(img) < baseHeaderSize || u32(20) < baseHeaderSize || u32(20) > len(img) {
		return img
	}
	total, shellEnd, dirEnd := u32(20), u32(32), baseHeaderSize+u32(28)*dirSlotSize
	if u32(8) == 0 && shellEnd >= baseHeaderSize && shellEnd <= total {
		for slot := baseHeaderSize; slot < dirEnd && slot+dirSlotSize <= shellEnd; slot += dirSlotSize {
			off, n, poff, pn := u32(slot), u32(slot+4), u32(slot+8), u32(slot+12)
			if off+n > total || poff+pn > total {
				continue
			}
			crc := crc32.ChecksumIEEE(img[off : off+n])
			if pn > 0 {
				crc = crc32.Update(crc, crc32.IEEETable, img[poff:poff+pn])
			}
			binary.BigEndian.PutUint32(img[slot+28:], crc)
		}
		binary.BigEndian.PutUint32(img[36:], shellCRC(img, shellEnd))
	}
	binary.BigEndian.PutUint32(img[0:], crc32.ChecksumIEEE(img[4:total]))
	return img
}
