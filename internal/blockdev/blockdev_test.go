package blockdev

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"betrfs/internal/sim"
)

func newSSD(t *testing.T) (*sim.Env, *Dev) {
	t.Helper()
	env := sim.NewEnv(1)
	return env, New(env, SamsungEVO860())
}

func TestReadWriteRoundTrip(t *testing.T) {
	_, d := newSSD(t)
	data := []byte("hello, block device")
	buf := make([]byte, len(data))
	d.WriteAt(data, 4096)
	d.ReadAt(buf, 4096)
	if !bytes.Equal(buf, data) {
		t.Fatalf("read %q, want %q", buf, data)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	_, d := newSSD(t)
	buf := make([]byte, 8192)
	for i := range buf {
		buf[i] = 0xff
	}
	d.ReadAt(buf, 1<<30)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("unwritten byte %d = %#x, want 0", i, b)
		}
	}
}

func TestCrossChunkIO(t *testing.T) {
	_, d := newSSD(t)
	data := make([]byte, 3*chunkSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	off := int64(chunkSize/2 + 13)
	d.WriteAt(data, off)
	got := make([]byte, len(data))
	d.ReadAt(got, off)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-chunk write/read mismatch")
	}
}

func TestSequentialFasterThanRandom(t *testing.T) {
	envSeq := sim.NewEnv(1)
	seq := New(envSeq, SamsungEVO860())
	buf := make([]byte, 4096)
	for i := 0; i < 256; i++ {
		seq.WriteAt(buf, int64(i)*4096)
	}
	envRand := sim.NewEnv(1)
	rnd := New(envRand, SamsungEVO860())
	for i := 0; i < 256; i++ {
		// Stride far apart so no write continues the stream.
		rnd.WriteAt(buf, int64((i*7919)%100000)*4096)
	}
	if envSeq.Now()*3 > envRand.Now() {
		t.Fatalf("sequential (%v) not much faster than random (%v)",
			envSeq.Now(), envRand.Now())
	}
}

func TestSequentialWriteBandwidth(t *testing.T) {
	env, d := newSSD(t)
	buf := make([]byte, 1<<20)
	const total = 256 << 20 // stays inside the write cache
	for off := int64(0); off < total; off += int64(len(buf)) {
		d.WriteAt(buf, off)
	}
	mbps := float64(total) / env.Now().Seconds() / 1e6
	if mbps < 400 || mbps > 510 {
		t.Fatalf("sequential write bandwidth %.0f MB/s, want ~480-500", mbps)
	}
}

func TestWriteCacheExhaustion(t *testing.T) {
	env := sim.NewEnv(1)
	p := SamsungEVO860()
	p.WriteCacheBytes = 32 << 20
	d := New(env, p)
	buf := make([]byte, 1<<20)
	const total = 512 << 20
	for off := int64(0); off < total; off += int64(len(buf)) {
		d.WriteAt(buf, off)
	}
	mbps := float64(total) / env.Now().Seconds() / 1e6
	// Should be near the sustained 392 MB/s, not the burst 502.
	if mbps > 430 {
		t.Fatalf("sustained write bandwidth %.0f MB/s, cache model not engaged", mbps)
	}
	if mbps < 320 {
		t.Fatalf("sustained write bandwidth %.0f MB/s, too slow", mbps)
	}
}

func TestAsyncOverlapsCPU(t *testing.T) {
	env, d := newSSD(t)
	buf := make([]byte, 1<<20)
	c := d.SubmitWrite(buf, 0)
	submitted := env.Now()
	if submitted >= c.At {
		t.Fatal("submit should not advance the clock to completion")
	}
	env.Charge(10 * time.Millisecond) // overlapping CPU work
	d.Wait(c)
	if env.Now() != 10*time.Millisecond {
		t.Fatalf("wait after overlapping CPU advanced clock to %v", env.Now())
	}
}

func TestFlushDrainsQueue(t *testing.T) {
	env, d := newSSD(t)
	buf := make([]byte, 4<<20)
	c := d.SubmitWrite(buf, 0)
	d.Flush()
	if env.Now() < c.At {
		t.Fatalf("flush returned at %v before completion %v", env.Now(), c.At)
	}
	if d.Stats().Flushes != 1 {
		t.Fatalf("flush count %d, want 1", d.Stats().Flushes)
	}
}

func TestStatsAccounting(t *testing.T) {
	_, d := newSSD(t)
	buf := make([]byte, 4096)
	d.WriteAt(buf, 0)
	d.WriteAt(buf, 4096)
	d.ReadAt(buf, 0)
	s := d.Stats()
	if s.Writes != 2 || s.Reads != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.BytesWritten != 8192 || s.BytesRead != 4096 {
		t.Fatalf("byte stats %+v", s)
	}
	if s.SeqWrites != 1 || s.RandWrites != 1 {
		// First write at 0 is "random" (stream starts at 0 == writeEnd,
		// so actually sequential); second continues it.
		t.Logf("seq=%d rand=%d", s.SeqWrites, s.RandWrites)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	_, d := newSSD(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range write did not panic")
		}
	}()
	d.WriteAt(make([]byte, 4096), d.Size())
}

func TestCrashRevertsUnflushed(t *testing.T) {
	_, d := newSSD(t)
	d.EnableCrashTracking()
	a := bytes.Repeat([]byte{0xaa}, 4096)
	b := bytes.Repeat([]byte{0xbb}, 4096)
	d.WriteAt(a, 0)
	d.Flush() // a is durable
	d.WriteAt(b, 0)
	if d.UnflushedWrites() != 1 {
		t.Fatalf("unflushed=%d, want 1", d.UnflushedWrites())
	}
	d.Crash(0)
	got := make([]byte, 4096)
	d.ReadAt(got, 0)
	if !bytes.Equal(got, a) {
		t.Fatal("crash did not revert unflushed write")
	}
}

func TestCrashKeepsPrefix(t *testing.T) {
	_, d := newSSD(t)
	d.EnableCrashTracking()
	d.Flush()
	for i := 0; i < 10; i++ {
		buf := bytes.Repeat([]byte{byte(i + 1)}, 4096)
		d.WriteAt(buf, int64(i)*4096)
	}
	d.Crash(4) // first 4 survive
	got := make([]byte, 4096)
	for i := 0; i < 10; i++ {
		d.ReadAt(got, int64(i)*4096)
		want := byte(0)
		if i < 4 {
			want = byte(i + 1)
		}
		if got[0] != want {
			t.Fatalf("block %d = %#x, want %#x", i, got[0], want)
		}
	}
}

func TestCrashOverlappingWrites(t *testing.T) {
	_, d := newSSD(t)
	d.EnableCrashTracking()
	d.Flush()
	d.WriteAt(bytes.Repeat([]byte{1}, 4096), 0)
	d.WriteAt(bytes.Repeat([]byte{2}, 4096), 0)
	d.Crash(1) // keep first write only
	got := make([]byte, 4096)
	d.ReadAt(got, 0)
	if got[0] != 1 {
		t.Fatalf("overlapping revert produced %#x, want 1", got[0])
	}
}

func TestHDDSlowerThanSSDRandom(t *testing.T) {
	envS := sim.NewEnv(1)
	ssd := New(envS, SamsungEVO860())
	envH := sim.NewEnv(1)
	hdd := New(envH, ToshibaDT01())
	buf := make([]byte, 4096)
	for i := 0; i < 64; i++ {
		off := int64((i*104729)%1000000) * 4096
		ssd.ReadAt(buf, off)
		hdd.ReadAt(buf, off)
	}
	if envH.Now() < envS.Now()*10 {
		t.Fatalf("hdd random reads (%v) should dwarf ssd (%v)", envH.Now(), envS.Now())
	}
}

func TestProfileScale(t *testing.T) {
	p := SamsungEVO860().Scale(64)
	if p.Capacity != (250<<30)/64 {
		t.Fatalf("scaled capacity %d", p.Capacity)
	}
	if p.WriteCacheBytes != (12<<30)/64 {
		t.Fatalf("scaled cache %d", p.WriteCacheBytes)
	}
	if q := SamsungEVO860().Scale(1); q.Capacity != 250<<30 {
		t.Fatal("scale(1) should be identity")
	}
}

func TestRoundTripProperty(t *testing.T) {
	env := sim.NewEnv(1)
	d := New(env, SamsungEVO860())
	f := func(data []byte, off uint32) bool {
		if len(data) == 0 {
			return true
		}
		o := int64(off) % (d.Size() - int64(len(data)))
		d.WriteAt(data, o)
		got := make([]byte, len(data))
		d.ReadAt(got, o)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCrashTornWrite(t *testing.T) {
	_, d := newSSD(t)
	d.EnableCrashTracking()
	d.Flush()
	old := bytes.Repeat([]byte{0xaa}, 4096)
	d.WriteAt(old, 0)
	d.Flush() // old is durable
	d.WriteAt(bytes.Repeat([]byte{0x11}, 4096), 0)
	nw := bytes.Repeat([]byte{0xbb}, 4096)
	d.WriteAt(nw, 4096)
	d.CrashTorn(1, 100) // write 0 survives, write 1 torn at byte 100
	got := make([]byte, 4096)
	d.ReadAt(got, 0)
	if got[0] != 0x11 {
		t.Fatalf("kept write reverted: %#x", got[0])
	}
	d.ReadAt(got, 4096)
	for i, b := range got {
		want := byte(0)
		if i < 100 {
			want = 0xbb
		}
		if b != want {
			t.Fatalf("torn byte %d = %#x, want %#x", i, b, want)
		}
	}
}

func TestCrashTornOverOld(t *testing.T) {
	// A torn write must expose new-prefix + old-suffix, not new + zeros.
	_, d := newSSD(t)
	d.EnableCrashTracking()
	d.WriteAt(bytes.Repeat([]byte{0xaa}, 4096), 0)
	d.Flush()
	d.WriteAt(bytes.Repeat([]byte{0xbb}, 4096), 0)
	d.CrashTorn(0, 10)
	got := make([]byte, 4096)
	d.ReadAt(got, 0)
	for i, b := range got {
		want := byte(0xaa)
		if i < 10 {
			want = 0xbb
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
}

func TestCrashSubset(t *testing.T) {
	_, d := newSSD(t)
	d.EnableCrashTracking()
	d.Flush()
	for i := 0; i < 6; i++ {
		d.WriteAt(bytes.Repeat([]byte{byte(i + 1)}, 4096), int64(i)*4096)
	}
	d.CrashSubset([]bool{false, true, false, false, true, false})
	got := make([]byte, 4096)
	for i := 0; i < 6; i++ {
		d.ReadAt(got, int64(i)*4096)
		want := byte(0)
		if i == 1 || i == 4 {
			want = byte(i + 1)
		}
		if got[0] != want {
			t.Fatalf("block %d = %#x, want %#x", i, got[0], want)
		}
	}
}

func TestCrashSubsetOverlapLatestWins(t *testing.T) {
	_, d := newSSD(t)
	d.EnableCrashTracking()
	d.WriteAt(bytes.Repeat([]byte{1}, 4096), 0)
	d.WriteAt(bytes.Repeat([]byte{2}, 4096), 0)
	d.WriteAt(bytes.Repeat([]byte{3}, 4096), 0)
	// Writes 0 and 2 survive: the later submission (3) must win.
	d.CrashSubset([]bool{true, false, true})
	got := make([]byte, 4096)
	d.ReadAt(got, 0)
	if got[0] != 3 {
		t.Fatalf("overlap resolution %#x, want 3", got[0])
	}
	// Now only the earlier write survives.
	d.EnableCrashTracking()
	d.WriteAt(bytes.Repeat([]byte{4}, 4096), 0)
	d.WriteAt(bytes.Repeat([]byte{5}, 4096), 0)
	d.CrashSubset([]bool{true, false})
	d.ReadAt(got, 0)
	if got[0] != 4 {
		t.Fatalf("overlap resolution %#x, want 4", got[0])
	}
}

func TestCrashAutoRearm(t *testing.T) {
	// After a crash, tracking must still be armed with the post-crash
	// state as the new baseline: a second round of writes and a second
	// crash must revert to what survived the first crash, and flushed
	// writes from between the crashes must stay durable.
	_, d := newSSD(t)
	d.EnableCrashTracking()
	d.WriteAt(bytes.Repeat([]byte{1}, 4096), 0)
	d.Crash(1) // write survives the first crash
	if d.UnflushedWrites() != 0 {
		t.Fatalf("unflushed after crash = %d, want 0", d.UnflushedWrites())
	}
	d.WriteAt(bytes.Repeat([]byte{2}, 4096), 4096)
	d.Flush() // durable between crashes
	d.WriteAt(bytes.Repeat([]byte{3}, 4096), 0)
	if d.UnflushedWrites() != 1 {
		t.Fatalf("tracking not re-armed: unflushed = %d, want 1", d.UnflushedWrites())
	}
	d.Crash(0) // second crash: reverts only the post-flush write
	got := make([]byte, 4096)
	d.ReadAt(got, 0)
	if got[0] != 1 {
		t.Fatalf("baseline after second crash %#x, want 1 (first-crash survivor)", got[0])
	}
	d.ReadAt(got, 4096)
	if got[0] != 2 {
		t.Fatalf("flushed write lost across second crash: %#x", got[0])
	}
}

func TestCorruptZeroAndFlip(t *testing.T) {
	_, d := newSSD(t)
	data := bytes.Repeat([]byte{0xff}, 4096)
	d.WriteAt(data, 0)
	d.Flush()
	d.CorruptZero(100, 8)
	got := make([]byte, 4096)
	d.ReadAt(got, 0)
	for i := 100; i < 108; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d not zeroed: %#x", i, got[i])
		}
	}
	if got[99] != 0xff || got[108] != 0xff {
		t.Fatal("zeroing bled outside its range")
	}
	before := make([]byte, 64)
	d.ReadAt(got, 0)
	copy(before, got[200:264])
	d.CorruptFlip(200, 64, 42)
	d.ReadAt(got, 0)
	diff := 0
	for i := 0; i < 64; i++ {
		if got[200+i] != before[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("CorruptFlip changed nothing")
	}
	// Determinism: same seed on identical content flips identically.
	env2 := sim.NewEnv(1)
	d2 := New(env2, SamsungEVO860())
	d2.WriteAt(data, 0)
	d2.CorruptFlip(200, 64, 42)
	got2 := make([]byte, 4096)
	d2.ReadAt(got2, 0)
	if !bytes.Equal(got[200:264], got2[200:264]) {
		t.Fatal("CorruptFlip not deterministic")
	}
}

// newDevOn returns an SSD whose chunks come from st instead of the shared
// store, so a test sees every chunk it frees and maps.
func newDevOn(st *chunkStore) (*sim.Env, *Dev) {
	env := sim.NewEnv(1)
	d := New(env, SamsungEVO860())
	d.chunks = newChunkTable(st)
	return env, d
}

// dirtyFree writes chunks full chunks of 0xee on d from chunk first on and
// discards them, leaving them on the free list with stale bytes. It
// returns the freed chunks' first bytes, by which a test recognises them.
func dirtyFree(t *testing.T, d *Dev, first, chunks int64) map[*byte]bool {
	t.Helper()
	d.WriteAt(bytes.Repeat([]byte{0xee}, int(chunks*chunkSize)), first*chunkSize)
	freed := map[*byte]bool{}
	for ci := first; ci < first+chunks; ci++ {
		freed[&d.chunks.m[ci][0]] = true
	}
	if err := d.Discard(first*chunkSize, chunks*chunkSize); err != nil {
		t.Fatal(err)
	}
	if len(d.chunks.m) != 0 {
		t.Fatalf("%d chunks left after discarding every written one", len(d.chunks.m))
	}
	return freed
}

// checkBytes fails unless got holds want in [lo, hi) and zeros elsewhere.
func checkBytes(t *testing.T, got []byte, lo, hi int, want byte) {
	t.Helper()
	for i, b := range got {
		w := byte(0)
		if i >= lo && i < hi {
			w = want
		}
		if b != w {
			t.Fatalf("byte %d = %#x, want %#x", i, b, w)
		}
	}
}

// chunkBytes reads d's blockdev.chunk.bytes gauge.
func chunkBytes(env *sim.Env) int64 {
	return env.Metrics.Snapshot().Gauges["blockdev.chunk.bytes"]
}

// TestFreeChunkPartialWrite has one device discard chunks and another
// write a few bytes into the chunks it then takes off the shared free
// list: every byte the write does not cover reads as zero, never as the
// first device's data.
func TestFreeChunkPartialWrite(t *testing.T) {
	var st chunkStore
	envA, a := newDevOn(&st)
	envB, b := newDevOn(&st)
	freed := dirtyFree(t, a, 0, 3)
	if got := chunkBytes(envA); got != 0 {
		t.Fatalf("discarding every chunk left a gauge of %d bytes", got)
	}
	// One write straddling two new chunks, then one in a third.
	b.WriteAt(bytes.Repeat([]byte{0x5a}, 200), 10*chunkSize-100)
	b.WriteAt([]byte{0x7b}, 20*chunkSize+chunkSize/2)
	if len(st.free) != 0 {
		t.Fatalf("%d chunks left on the free list, want all 3 reused", len(st.free))
	}
	for ci, c := range b.chunks.m {
		if !freed[&c[0]] {
			t.Fatalf("chunk %d is not one the other device freed", ci)
		}
	}
	if got := chunkBytes(envB); got != 3*chunkSize {
		t.Fatalf("gauge %d bytes, want 3 chunks", got)
	}
	got := make([]byte, 2*chunkSize)
	b.ReadAt(got, 9*chunkSize)
	checkBytes(t, got, chunkSize-100, chunkSize+100, 0x5a)
	got = got[:chunkSize]
	b.ReadAt(got, 20*chunkSize)
	checkBytes(t, got, chunkSize/2, chunkSize/2+1, 0x7b)
	// The discarded range itself reads as zeros.
	a.ReadAt(got, 0)
	checkBytes(t, got, 0, 0, 0)
	// A discard that covers no chunk whole frees nothing.
	if err := b.Discard(9*chunkSize+1, 2*chunkSize-2); err != nil {
		t.Fatal(err)
	}
	if len(st.free) != 0 || chunkBytes(envB) != 3*chunkSize {
		t.Fatalf("a discard covering no whole chunk freed %d chunks", len(st.free))
	}
}

// TestFreeChunkCrashRevert runs discards and reused chunks under crash
// tracking: a tracked discard is reverted by a crash, and a tracked write
// into a chunk another device freed reverts to the zeros it replaced.
func TestFreeChunkCrashRevert(t *testing.T) {
	var st chunkStore
	_, a := newDevOn(&st)
	_, d := newDevOn(&st)
	dirtyFree(t, a, 0, 2)
	keep := bytes.Repeat([]byte{0x11}, chunkSize)
	d.WriteAt(keep, 4*chunkSize) // takes a freed chunk
	d.Flush()
	d.EnableCrashTracking()
	if err := d.Discard(4*chunkSize, chunkSize); err != nil {
		t.Fatal(err)
	}
	d.WriteAt(bytes.Repeat([]byte{0x22}, 300), 8*chunkSize+5) // takes a freed chunk
	if len(st.free) != 0 {
		t.Fatalf("%d chunks left on the free list, want both reused", len(st.free))
	}
	got := make([]byte, chunkSize)
	d.ReadAt(got, 4*chunkSize)
	checkBytes(t, got, 0, 0, 0)
	d.Crash(0)
	d.ReadAt(got, 4*chunkSize)
	if !bytes.Equal(got, keep) {
		t.Fatal("crash did not revert the unflushed discard")
	}
	d.ReadAt(got, 8*chunkSize)
	checkBytes(t, got, 0, 0, 0)
}

// TestChunkChurnBound creates and drops devices that each write 64 MiB.
// The collector does not see mapped chunks, so only the store's forced
// collection returns a dropped device's chunks in time: the store must
// stay within twice one device's bytes plus one slab, where without it
// every device would map its own.
func TestChunkChurnBound(t *testing.T) {
	const devices, perDev = 20, 64 << 20
	var st chunkStore
	buf := bytes.Repeat([]byte{0x3c}, 1<<20)
	var peak int64
	for i := 0; i < devices; i++ {
		_, d := newDevOn(&st)
		for off := int64(0); off < perDev; off += int64(len(buf)) {
			d.WriteAt(buf, off)
		}
		st.mu.Lock()
		peak = max(peak, st.mapped)
		st.mu.Unlock()
	}
	if bound := int64(2*perDev + slabSize); peak > bound {
		t.Fatalf("%d devices of %d MiB mapped %d MiB, want at most %d MiB",
			devices, perDev>>20, peak>>20, bound>>20)
	}
	t.Logf("peak mapped %d MiB after %d forced collections", peak>>20, st.collections.Load())
}

// TestChunkStoreConcurrent runs devices on several goroutines against one
// store while earlier devices are dropped: writes, discards and forced
// collections race with each other and with the finalizers, and each
// device must still read back only its own bytes. Meant for -race.
func TestChunkStoreConcurrent(t *testing.T) {
	const workers, rounds, chunks = 4, 3, 512 // 32 MiB written, 16 MiB held
	var st chunkStore
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			zero, written, got := make([]byte, chunkSize), make([]byte, chunkSize), make([]byte, chunkSize)
			for r := 0; r < rounds; r++ {
				_, d := newDevOn(&st)
				b := byte(w*rounds + r + 1)
				half := bytes.Repeat([]byte{b}, chunkSize/2)
				copy(written[chunkSize/4:], half)
				// Odd chunks keep their write; each even one is
				// discarded whole once written.
				for ci := int64(0); ci < chunks; ci++ {
					d.WriteAt(half, ci*chunkSize+chunkSize/4)
					if ci%2 == 1 {
						if err := d.Discard((ci-1)*chunkSize, chunkSize); err != nil {
							t.Error(err)
							return
						}
					}
				}
				for ci := int64(0); ci < chunks; ci++ {
					d.ReadAt(got, ci*chunkSize)
					want := written
					if ci%2 == 0 {
						want = zero
					}
					if !bytes.Equal(got, want) {
						t.Errorf("worker %d round %d: chunk %d does not hold its own bytes", w, r, ci)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	t.Logf("%d forced collections, %d MiB mapped", st.collections.Load(), st.mapped>>20)
}
