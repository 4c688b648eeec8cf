package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(5 * time.Millisecond)
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("clock at %v, want 5ms", c.Now())
	}
	c.Advance(-time.Second) // negative ignored
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("negative advance moved clock to %v", c.Now())
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(time.Second)
	if c.Now() != time.Second {
		t.Fatalf("clock at %v, want 1s", c.Now())
	}
	c.AdvanceTo(time.Millisecond) // never backwards
	if c.Now() != time.Second {
		t.Fatalf("AdvanceTo moved clock backwards to %v", c.Now())
	}
}

func TestClockMonotonic(t *testing.T) {
	f := func(steps []int16) bool {
		c := NewClock()
		prev := c.Now()
		for _, s := range steps {
			c.Advance(time.Duration(s))
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnvCharges(t *testing.T) {
	env := NewEnv(1)
	env.Memcpy(1 << 20)
	if env.Now() <= 0 {
		t.Fatal("memcpy of 1MiB charged no time")
	}
	// 1 MiB at 8 GiB/s should be roughly 128µs; allow slack.
	if env.Now() < 50*time.Microsecond || env.Now() > 500*time.Microsecond {
		t.Fatalf("memcpy of 1MiB charged %v, want ~128µs", env.Now())
	}
	before := env.Now()
	env.Compare(16)
	if env.Now() <= before {
		t.Fatal("compare charged no time")
	}
	if env.Stats.Memcpy == 0 || env.Stats.Compare == 0 {
		t.Fatalf("stats not accumulated: %+v", env.Stats)
	}
	if env.Stats.Total() != env.Now() {
		t.Fatalf("stats total %v != clock %v", env.Stats.Total(), env.Now())
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := NewRand(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRand(42).Uint64() == c.Uint64() {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed degenerated")
	}
}
