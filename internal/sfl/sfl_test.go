package sfl

import (
	"bytes"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/ftl"
	"betrfs/internal/sim"
)

func newSFL(t testing.TB) (*sim.Env, *blockdev.Dev, *SFL) {
	t.Helper()
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	s, err := NewDefault(env, dev)
	if err != nil {
		t.Fatal(err)
	}
	return env, dev, s
}

func TestLayoutProportions(t *testing.T) {
	_, dev, s := newSFL(t)
	lay := s.Layout()
	if lay.SuperBytes != 8<<20 {
		t.Fatalf("superblock %d, want 8MiB (Table 2)", lay.SuperBytes)
	}
	total := lay.SuperBytes + lay.LogBytes + lay.MetaBytes + lay.DataBytes
	if total > dev.Size() {
		t.Fatal("layout exceeds device")
	}
	if lay.DataBytes < lay.MetaBytes*5 {
		t.Fatal("data region should dominate (Table 2 proportions)")
	}
}

// TestRegionsAlignToEraseBlocks checks the default layout on the paper's
// 250 GiB disk and at every scale from 1/64 to 1/4096: each region starts
// on an FTL erase-block boundary, super, log and meta keep their Table 2
// sizes (so the log wraps where it did before the padding), and the data
// region ends inside the device.
func TestRegionsAlignToEraseBlocks(t *testing.T) {
	if fc := ftl.DefaultConfig(); RegionAlign != fc.PageSize*fc.PagesPerBlock {
		t.Fatalf("RegionAlign %d, FTL erase block %d", RegionAlign, fc.PageSize*fc.PagesPerBlock)
	}
	for _, scale := range []int64{1, 64, 128, 256, 512, 1024, 2048, 4096} {
		env := sim.NewEnv(1)
		dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(scale))
		capacity := dev.Size()
		lay := DefaultLayout(capacity)
		logBytes := max(capacity/125, 4<<20)
		if lay.SuperBytes != 8<<20 || lay.LogBytes != logBytes || lay.MetaBytes != (capacity-lay.SuperBytes-logBytes)/10 {
			t.Fatalf("1/%d: layout %+v moved super, log or meta", scale, lay)
		}
		s, err := New(env, dev, lay)
		if err != nil {
			t.Fatalf("1/%d: %v", scale, err)
		}
		for name := range s.files {
			if off := s.DevOffset(name, 0); off%RegionAlign != 0 {
				t.Errorf("1/%d: %s starts at %d, not on a %d-byte erase block", scale, name, off, RegionAlign)
			}
		}
		if end := s.DevOffset("data", lay.DataBytes); end != capacity {
			t.Errorf("1/%d: data region ends at %d of %d", scale, end, capacity)
		}
	}
}

func TestFilesAreDisjoint(t *testing.T) {
	_, _, s := newSFL(t)
	// Writing a marker at offset 0 of each file must not clobber others.
	var names []string
	for name := range s.files {
		names = append(names, name)
	}
	if len(names) != 4 {
		t.Fatalf("names=%v", names)
	}
	for i, name := range names {
		buf := []byte{byte(i + 1), 0xbe, 0xef}
		s.File(name).WriteAt(buf, 0)
	}
	for i, name := range names {
		got := make([]byte, 3)
		s.File(name).ReadAt(got, 0)
		if got[0] != byte(i+1) {
			t.Fatalf("file %s clobbered: %v", name, got)
		}
	}
}

func TestDirectIONoCopyCharges(t *testing.T) {
	env, _, s := newSFL(t)
	f := s.File("data")
	buf := make([]byte, 1<<20)
	before := env.Stats.Memcpy
	f.WriteAt(buf, 0)
	if env.Stats.Memcpy != before {
		t.Fatal("SFL charged a memcpy: it must be zero-copy direct I/O")
	}
}

func TestAsyncIO(t *testing.T) {
	env, _, s := newSFL(t)
	f := s.File("meta")
	data := bytes.Repeat([]byte{0xab}, 256<<10)
	wait := f.SubmitWrite(data, 4096)
	submitTime := env.Now()
	wait()
	if env.Now() < submitTime {
		t.Fatal("time went backwards")
	}
	got := make([]byte, len(data))
	f.ReadAt(got, 4096)
	if !bytes.Equal(got, data) {
		t.Fatal("async write round trip failed")
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	_, _, s := newSFL(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds write did not panic")
		}
	}()
	f := s.File("super")
	f.WriteAt(make([]byte, 4096), f.Capacity())
}

func TestUnknownFilePanics(t *testing.T) {
	_, _, s := newSFL(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown file did not panic")
		}
	}()
	s.File("nonexistent")
}
