package betrfs

import (
	"bytes"
	"errors"
	"testing"

	"betrfs/internal/betree"
	"betrfs/internal/ioerr"
	"betrfs/internal/keys"
	"betrfs/internal/vfs"
)

// FuzzDecodeAttr feeds arbitrary metadata values to decodeAttr. Every input
// must either fail with an EIO-class error or decode to an attribute that
// encodes back to the same bytes. The seed corpus in testdata/fuzz holds
// the empty value, 1, 20 and 22 bytes, a 21-byte value whose flag byte is
// 2, and a valid value.
func FuzzDecodeAttr(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := decodeAttr(b)
		if err != nil {
			if !errors.Is(err, ioerr.ErrIO) {
				t.Fatalf("decode error %v is not EIO-class", err)
			}
			return
		}
		if enc := encodeAttr(a); !bytes.Equal(enc, b) {
			t.Fatalf("%x decodes to %+v, which encodes to %x", b, a, enc)
		}
	})
}

// TestShortAttrFailsMountOps stores a CRC-valid but short metadata value
// under a directory and checks that the mount's Stat and ReadDir of it
// fail with an EIO-class error rather than panic, and that a rename of it
// fails too.
func TestShortAttrFailsMountOps(t *testing.T) {
	env, fs := newFS(t, nil)
	m := vfs.NewMount(env, fs, vfs.DefaultConfig())
	if err := m.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.store.Meta().Put(keys.MetaKey("d/bad"), []byte{1, 2, 3}, betree.LogAuto); err != nil {
		t.Fatal(err)
	}
	m.DropCaches()
	if _, err := m.Stat("d/bad"); !errors.Is(err, ioerr.ErrIO) {
		t.Fatalf("Stat of a short attribute value: %v, want an EIO-class error", err)
	}
	if _, err := m.ReadDir("d"); !errors.Is(err, ioerr.ErrIO) {
		t.Fatalf("ReadDir over a short attribute value: %v, want an EIO-class error", err)
	}
	if _, err := fs.Rename(fs.Root(), "bad", "d/bad", fs.Root(), "moved"); !errors.Is(err, ioerr.ErrIO) {
		t.Fatalf("Rename of a short attribute value: %v, want an EIO-class error", err)
	}
}
