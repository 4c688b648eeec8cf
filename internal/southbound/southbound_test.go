package southbound

import (
	"bytes"
	"testing"
	"time"

	"betrfs/internal/blockdev"
	"betrfs/internal/extfs"
	"betrfs/internal/metrics/metricstest"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
	"betrfs/internal/stor"
)

func newBackend(t testing.TB) (*sim.Env, *Backend) {
	t.Helper()
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	lower := extfs.New(env, dev, extfs.Ext4Profile())
	return env, New(env, lower, DefaultLayout(dev.Size()))
}

func TestRoundTrip(t *testing.T) {
	_, b := newBackend(t)
	f := b.File("data")
	data := bytes.Repeat([]byte{0x42}, 128<<10)
	f.WriteAt(data, 8192)
	got := make([]byte, len(data))
	f.ReadAt(got, 8192)
	if !bytes.Equal(got, data) {
		t.Fatal("southbound round trip failed")
	}
}

func TestStackingChargesCopies(t *testing.T) {
	env, b := newBackend(t)
	f := b.File("data")
	before := env.Stats.Memcpy
	f.WriteAt(make([]byte, 1<<20), 0)
	if env.Stats.Memcpy <= before {
		t.Fatal("stacked write must pay the lower page-cache copy (§2.3)")
	}
	if n := metricstest.Counter(t, env.Metrics, "southbound.bytes.copied"); n < 1<<20 {
		t.Fatalf("copied bytes %d", n)
	}
}

func TestWritebackStallsUnderPressure(t *testing.T) {
	env, b := newBackend(t)
	b.stallThreshold = 4 << 20
	f := b.File("data")
	buf := make([]byte, 1<<20)
	start := env.Now()
	for i := 0; i < 32; i++ {
		f.WriteAt(buf, int64(i)<<20)
	}
	if metricstest.Counter(t, env.Metrics, "southbound.stall.count") == 0 {
		t.Fatal("no write-back stalls despite pressure")
	}
	// The stall time must dominate raw device time for this burst.
	if env.Now()-start < b.stallDelay {
		t.Fatal("stalls charged no time")
	}
}

func TestFlushCommitsLowerJournal(t *testing.T) {
	env, b := newBackend(t)
	f := b.File("log")
	f.WriteAt(make([]byte, 4096), 0)
	before := metricstest.Counter(t, env.Metrics, "southbound.flush.count")
	f.Flush()
	if metricstest.Counter(t, env.Metrics, "southbound.flush.count") != before+1 {
		t.Fatal("flush did not fsync through the lower file system")
	}
}

func TestDoubleJournalCostlierThanSFL(t *testing.T) {
	// A small synchronous write through the southbound must cost more
	// than the same write via SFL (double journaling, §2.3).
	envSB, b := newBackend(t)
	f := b.File("log")
	startSB := envSB.Now()
	for i := 0; i < 50; i++ {
		f.WriteAt(make([]byte, 4096), int64(i)*4096)
		f.Flush()
	}
	sbTime := envSB.Now() - startSB

	envS := sim.NewEnv(1)
	dev := blockdev.New(envS, blockdev.SamsungEVO860().Scale(64))
	sflS, serr := sfl.NewDefault(envS, dev)
	if serr != nil {
		t.Fatal(serr)
	}
	var sf stor.File = sflS.File("log")
	start := envS.Now()
	for i := 0; i < 50; i++ {
		sf.WriteAt(make([]byte, 4096), int64(i)*4096)
		sf.Flush()
	}
	sflTime := envS.Now() - start
	_ = time.Duration(0)
	if sbTime <= sflTime {
		t.Fatalf("stacked sync writes (%v) not costlier than SFL (%v)", sbTime, sflTime)
	}
}
