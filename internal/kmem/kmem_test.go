package kmem

import (
	"testing"
	"testing/quick"

	"betrfs/internal/metrics/metricstest"
	"betrfs/internal/sim"
)

func TestSmallAllocsUseKmalloc(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, false)
	b := a.Alloc(1024)
	if b.vmalloc {
		t.Fatal("1KiB allocation should be kmalloc")
	}
	a.Free(b)
	if n := metricstest.Counter(t, env.Metrics, "kmem.alloc.kmalloc"); n != 1 {
		t.Fatalf("kmallocs=%d", n)
	}
}

func TestLargeAllocsUseVmalloc(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, false)
	b := a.Alloc(1 << 20)
	if !b.vmalloc {
		t.Fatal("1MiB allocation should be vmalloc")
	}
	if n := metricstest.Counter(t, env.Metrics, "kmem.alloc.vmalloc"); n != 1 {
		t.Fatalf("vmallocs=%d", n)
	}
}

func TestVmallocCostlierThanKmalloc(t *testing.T) {
	envK := sim.NewEnv(1)
	k := New(envK, false)
	for i := 0; i < 100; i++ {
		k.Free(k.Alloc(4096))
	}
	envV := sim.NewEnv(1)
	v := New(envV, false)
	for i := 0; i < 100; i++ {
		v.Free(v.Alloc(1 << 20)) // 1MiB is not a legacy cache class
	}
	if envV.Now() < envK.Now()*10 {
		t.Fatalf("vmalloc churn (%v) should dwarf kmalloc churn (%v)",
			envV.Now(), envK.Now())
	}
}

func TestLegacyCacheOnlyServes128K(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, false)
	b := a.Alloc(128 << 10)
	a.Free(b)
	if n := metricstest.Counter(t, env.Metrics, "kmem.buffercache.miss"); n != 1 {
		t.Fatalf("first alloc should miss, misses=%d", n)
	}
	b = a.Alloc(128 << 10)
	if n := metricstest.Counter(t, env.Metrics, "kmem.buffercache.hit"); n != 1 {
		t.Fatalf("second 128K alloc should hit cache, hits=%d", n)
	}
	a.Free(b)
	c := a.Alloc(1 << 20)
	if metricstest.Counter(t, env.Metrics, "kmem.buffercache.hit") != 1 {
		t.Fatal("1MiB alloc must not hit the 128K-only legacy cache")
	}
	a.Free(c)
}

func TestCooperativeCacheCoversPowerOfTwo(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, true)
	sizes := []int{64 << 10, 256 << 10, 1 << 20, 4 << 20}
	for _, s := range sizes {
		a.FreeSized(a.Alloc(s))
		before := metricstest.Counter(t, env.Metrics, "kmem.buffercache.hit")
		a.FreeSized(a.Alloc(s))
		if metricstest.Counter(t, env.Metrics, "kmem.buffercache.hit") != before+1 {
			t.Fatalf("size %d did not hit cooperative cache", s)
		}
	}
}

func TestFreeSizedCheaperThanFree(t *testing.T) {
	// Use a non-class size so frees take the unmap path where the size
	// lookup matters.
	const size = 5 << 20
	envL := sim.NewEnv(1)
	l := New(envL, false)
	start := envL.Now()
	b := l.Alloc(size)
	mid := envL.Now()
	l.Free(b)
	legacyFree := envL.Now() - mid
	_ = start

	envC := sim.NewEnv(1)
	c := New(envC, true)
	b2 := c.Alloc(size)
	mid2 := envC.Now()
	c.FreeSized(b2)
	coopFree := envC.Now() - mid2
	if coopFree >= legacyFree {
		t.Fatalf("cooperative free (%v) not cheaper than legacy (%v)", coopFree, legacyFree)
	}
}

func TestReallocWithinUsableIsFree(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, true)
	b := a.AllocUsable(100 << 10) // rounds up to 128K class
	if b.Usable < 128<<10 {
		t.Fatalf("usable=%d, want >=128K", b.Usable)
	}
	before := env.Now()
	b = a.GrowDoubling(b, 120<<10, 100<<10)
	if env.Now() != before {
		t.Fatal("realloc within usable capacity should cost nothing")
	}
	if metricstest.Counter(t, env.Metrics, "kmem.realloc.copy") != 0 {
		t.Fatal("realloc within usable capacity should not copy")
	}
}

func TestGrowDoublingLegacyCopiesRepeatedly(t *testing.T) {
	envL := sim.NewEnv(1)
	l := New(envL, false)
	b := l.Alloc(64 << 10)
	b = l.GrowDoubling(b, 4<<20, 64<<10)
	if b.Usable < 4<<20 {
		t.Fatalf("grown usable=%d", b.Usable)
	}
	if n := metricstest.Counter(t, envL.Metrics, "kmem.realloc.copy"); n < 5 {
		t.Fatalf("legacy doubling should copy many times, got %d", n)
	}

	envC := sim.NewEnv(1)
	c := New(envC, true)
	b2 := c.AllocUsable(64 << 10)
	b2 = c.GrowDoubling(b2, 4<<20, 64<<10)
	if n := metricstest.Counter(t, envC.Metrics, "kmem.realloc.copy"); n > 1 {
		t.Fatalf("cooperative growth should copy at most once, got %d", n)
	}
	if envC.Now() >= envL.Now() {
		t.Fatalf("cooperative growth (%v) not cheaper than legacy (%v)", envC.Now(), envL.Now())
	}
}

func TestFreeNilIsNoop(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, true)
	a.Free(nil)
	a.FreeSized(nil)
	if env.Now() != 0 {
		t.Fatal("freeing nil charged time")
	}
}

func TestAllocUsableProperty(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, true)
	f := func(sz uint32) bool {
		size := int(sz%(8<<20)) + 1
		b := a.AllocUsable(size)
		ok := b.Usable >= size && b.Size == size
		a.FreeSized(b)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCacheBounded(t *testing.T) {
	env := sim.NewEnv(1)
	a := New(env, true)
	bufs := make([]*Buf, 0, 100)
	for i := 0; i < 100; i++ {
		bufs = append(bufs, a.Alloc(128<<10))
	}
	for _, b := range bufs {
		a.FreeSized(b)
	}
	if a.cache[128<<10] > cachePerClass {
		t.Fatalf("cache overfilled: %d", a.cache[128<<10])
	}
}
