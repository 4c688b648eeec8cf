package blockdev

import (
	"testing"

	"betrfs/internal/sim"
)

// retryStack builds dev → fault → retry with the given plan and policy.
func retryStack(t *testing.T, plan FaultPlan, pol RetryPolicy) (*sim.Env, *FaultDev, *RetryDev) {
	t.Helper()
	env := sim.NewEnv(1)
	dev := New(env, SamsungEVO860().Scale(4096))
	fdev := NewFault(env, dev, plan)
	return env, fdev, WithRetry(env, fdev, pol)
}

// TestRetryExhaustedCounting pins the io.retry.exhausted contract: a
// transient fault that outlasts the retry budget counts exactly once
// per command (alongside its io.error.*), while a command that
// eventually succeeds counts zero.
func TestRetryExhaustedCounting(t *testing.T) {
	// Persistence far beyond the retry budget: every attempt at a site
	// keeps failing transiently, so every command exhausts.
	pol := DefaultRetryPolicy()
	pol.MaxAttempts = 3
	env, _, rd := retryStack(t, FaultPlan{
		Seed:                 1,
		TransientReadProb:    1.0,
		TransientPersistence: 100,
	}, pol)

	buf := make([]byte, 4096)
	const cmds = 5
	for i := 0; i < cmds; i++ {
		err := rd.ReadAt(buf, int64(i)*4096)
		if err == nil {
			t.Fatalf("read %d succeeded under an always-failing plan", i)
		}
		if !transient(err) {
			t.Fatalf("read %d surfaced non-transient %v from a transient plan", i, err)
		}
	}
	if got := env.Metrics.Counter("io.retry.exhausted").Load(); got != cmds {
		t.Fatalf("io.retry.exhausted = %d, want exactly %d (one per exhausted command)", got, cmds)
	}
	if got := env.Metrics.Counter("io.error.read").Load(); got != cmds {
		t.Fatalf("io.error.read = %d, want %d", got, cmds)
	}
	if got := env.Metrics.Counter("io.retry.read").Load(); got != cmds*int64(pol.MaxAttempts-1) {
		t.Fatalf("io.retry.read = %d, want %d re-submissions", got, cmds*int64(pol.MaxAttempts-1))
	}
}

// TestRetryExhaustedExcludesPersistent checks the other half of the
// contract: a persistent media error is a final failure too, but not an
// exhaustion — the budget never mattered — so io.error.* counts it and
// io.retry.exhausted does not.
func TestRetryExhaustedExcludesPersistent(t *testing.T) {
	env, fdev, rd := retryStack(t, FaultPlan{Seed: 2}, DefaultRetryPolicy())
	fdev.AddBadRange(0, 8192)

	buf := make([]byte, 4096)
	if err := rd.ReadAt(buf, 0); err == nil {
		t.Fatal("read from a bad range succeeded")
	} else if transient(err) {
		t.Fatalf("bad-range error %v claims to be transient", err)
	}
	if err := rd.WriteAt(buf, 4096); err == nil {
		t.Fatal("write to a bad range succeeded")
	}
	if got := env.Metrics.Counter("io.retry.exhausted").Load(); got != 0 {
		t.Fatalf("io.retry.exhausted = %d for persistent errors, want 0", got)
	}
	if got := env.Metrics.Counter("io.error.read").Load(); got != 1 {
		t.Fatalf("io.error.read = %d, want 1", got)
	}
	if got := env.Metrics.Counter("io.error.write").Load(); got != 1 {
		t.Fatalf("io.error.write = %d, want 1", got)
	}
	if got := env.Metrics.Counter("io.retry.read").Load() + env.Metrics.Counter("io.retry.write").Load(); got != 0 {
		t.Fatalf("%d retries of non-transient errors, want 0", got)
	}
}

// TestRetryAbsorbedNotExhausted checks that faults absorbed within the
// budget leave io.retry.exhausted and io.error.* untouched: retries are
// visible only in io.retry.read. The plan is seeded, so the sweep is
// deterministic; the budget (8 attempts) covers a persistence-2 fault
// chained with fresh independent faults at the same site.
func TestRetryAbsorbedNotExhausted(t *testing.T) {
	pol := DefaultRetryPolicy()
	pol.MaxAttempts = 8
	env, _, rd := retryStack(t, FaultPlan{
		Seed:                 3,
		TransientReadProb:    0.25,
		TransientPersistence: 2,
	}, pol)

	buf := make([]byte, 4096)
	for i := 0; i < 50; i++ {
		if err := rd.ReadAt(buf, int64(i)*4096); err != nil {
			t.Fatalf("read %d not absorbed by a retry-coverable plan: %v", i, err)
		}
	}
	if got := env.Metrics.Counter("io.retry.read").Load(); got == 0 {
		t.Fatal("plan injected no faults; test is vacuous")
	}
	if got := env.Metrics.Counter("io.retry.exhausted").Load(); got != 0 {
		t.Fatalf("io.retry.exhausted = %d for absorbed faults, want 0", got)
	}
	if got := env.Metrics.Counter("io.error.read").Load(); got != 0 {
		t.Fatalf("io.error.read = %d for absorbed faults, want 0", got)
	}
}
