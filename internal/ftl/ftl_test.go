package ftl

import (
	"bytes"
	"testing"
	"time"

	"betrfs/internal/blockdev"
	"betrfs/internal/sim"
)

// smallCfg is a 4 KiB-page, 4-page-block geometry so a ~1 MiB device has
// enough erase blocks for GC to matter without slowing the tests.
func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.PagesPerBlock = 4
	return cfg
}

func newFTL(t *testing.T, cfg Config) (*sim.Env, *Dev) {
	t.Helper()
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(262144)) // ~1 MiB
	return env, New(env, dev, cfg)
}

func TestPassThroughRoundTrip(t *testing.T) {
	_, d := newFTL(t, smallCfg())
	data := bytes.Repeat([]byte("ftl"), 5000)
	buf := make([]byte, len(data))
	if err := d.WriteAt(data, 8192); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(buf, 8192); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("round trip mismatch through FTL")
	}
}

func TestSequentialOverwriteWAFIsOne(t *testing.T) {
	env, d := newFTL(t, smallCfg())
	page := make([]byte, 4096)
	// Overwriting the same logical pages self-invalidates their old
	// physical homes, so GC victims are fully dead and no migration runs.
	for pass := 0; pass < 20; pass++ {
		for lp := int64(0); lp < d.logicalPages; lp++ {
			if err := d.WriteAt(page, lp*4096); err != nil {
				t.Fatal(err)
			}
		}
	}
	if waf := waf(env); waf != 1000 {
		t.Fatalf("sequential overwrite WAF = %d milli, want exactly 1000", waf)
	}
	snap := env.Metrics.Snapshot()
	if snap.Counters["ftl.gc.moved.pages"] != 0 {
		t.Fatalf("moved %d valid pages, want 0", snap.Counters["ftl.gc.moved.pages"])
	}
	if snap.Counters["ftl.erase.count"] == 0 {
		t.Fatal("no erases despite writing 20x the device capacity")
	}
}

// waf reads the write amplification factor in thousandths from the
// registry's io.waf gauge.
func waf(env *sim.Env) int64 { return env.Metrics.Snapshot().Gauges["io.waf"] }

// erases reads the total erase count from the registry.
func erases(env *sim.Env) int64 { return env.Metrics.Snapshot().Counters["ftl.erase.count"] }

// churn fills the device, trims the first half (or not), then overwrites
// the second half for passes rounds.
func churn(t *testing.T, d *Dev, passes int, trimHalf bool) {
	t.Helper()
	page := make([]byte, 4096)
	half := d.logicalPages / 2
	for lp := int64(0); lp < d.logicalPages; lp++ {
		if err := d.WriteAt(page, lp*4096); err != nil {
			t.Fatal(err)
		}
	}
	if trimHalf {
		if err := d.Discard(0, half*4096); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite the hot half in a strided order: sequential rewrites
	// invalidate each block just before GC would pick it (perfect
	// self-cleaning, WAF 1.0), while a stride leaves victims holding
	// valid pages that GC has to migrate — the aged-device regime.
	hot := d.logicalPages - half
	for pass := 0; pass < passes; pass++ {
		for i := int64(0); i < hot; i++ {
			lp := half + (i*37)%hot
			if err := d.WriteAt(page, lp*4096); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestTrimLowersWriteAmplification(t *testing.T) {
	trimEnv, trimmed := newFTL(t, smallCfg())
	ctrlCfg := smallCfg()
	ctrlCfg.DisableTrim = true
	ctrlEnv, control := newFTL(t, ctrlCfg)

	churn(t, trimmed, 20, true)
	churn(t, control, 20, true)
	if wafTrim, wafCtrl := waf(trimEnv), waf(ctrlEnv); wafTrim >= wafCtrl {
		t.Fatalf("TRIM run WAF %d milli not below DisableTrim control %d", wafTrim, wafCtrl)
	}
	// The control never learns the first half is dead, so GC migrates it
	// again and again; the stale pages must show up as moved bytes.
	if erases(ctrlEnv) <= erases(trimEnv) {
		t.Fatalf("control erases %d <= TRIM erases %d", erases(ctrlEnv), erases(trimEnv))
	}
}

func TestGCMigratesValidPages(t *testing.T) {
	env, d := newFTL(t, smallCfg())
	// No trim, half the space cold and live: GC has to move it.
	churn(t, d, 20, false)
	if waf := waf(env); waf <= 1000 {
		t.Fatalf("mixed-validity churn WAF = %d milli, want > 1000", waf)
	}
	snap := env.Metrics.Snapshot()
	moved := snap.Counters["ftl.gc.moved.pages"]
	if moved == 0 {
		t.Fatal("GC never migrated a valid page")
	}
	if got := snap.Counters["ftl.gc.moved.bytes"]; got != moved*4096 {
		t.Fatalf("gc.moved.bytes = %d, want %d", got, moved*4096)
	}
	host := snap.Counters["ftl.write.host.bytes"]
	flash := snap.Counters["ftl.write.flash.bytes"]
	if flash != host+moved*4096 {
		t.Fatalf("flash bytes %d != host %d + migrated %d", flash, host, moved*4096)
	}
	if want := flash * 1000 / host; snap.Gauges["io.waf"] != want {
		t.Fatalf("io.waf gauge = %d, want %d", snap.Gauges["io.waf"], want)
	}
}

func TestDiscardReadsBackZero(t *testing.T) {
	_, d := newFTL(t, smallCfg())
	data := bytes.Repeat([]byte{0xab}, 3*4096)
	if err := d.WriteAt(data, 4096); err != nil {
		t.Fatal(err)
	}
	if err := d.Discard(4096, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := d.ReadAt(buf, 4096); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("trimmed byte %d = %#x, want 0", i, b)
		}
	}
}

func TestDisableTrimKeepsDataSemantics(t *testing.T) {
	cfg := smallCfg()
	cfg.DisableTrim = true
	_, d := newFTL(t, cfg)
	data := bytes.Repeat([]byte{0xcd}, 4096)
	if err := d.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Discard(0, 4096); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// DisableTrim only drops the mapping hint; the wrapped device still
	// zeroes the range, so both runs of a TRIM/no-TRIM pair read the same.
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x after discard with DisableTrim, want 0", i, b)
		}
	}
	if d.forward[0] == unmapped {
		t.Fatal("DisableTrim discard unmapped the page anyway")
	}
}

func TestSubPageTrimKeepsMapping(t *testing.T) {
	_, d := newFTL(t, smallCfg())
	if err := d.WriteAt(make([]byte, 2*4096), 0); err != nil {
		t.Fatal(err)
	}
	// Covers all of page 0 plus half of page 1: only page 0 may unmap.
	if err := d.Discard(0, 4096+2048); err != nil {
		t.Fatal(err)
	}
	if d.forward[0] != unmapped {
		t.Fatal("fully covered page 0 still mapped after trim")
	}
	if d.forward[1] == unmapped {
		t.Fatal("partially covered page 1 was unmapped by a sub-page trim")
	}
}

func TestCountersDeterministic(t *testing.T) {
	run := func() (int64, int64, map[string]int64) {
		env, d := newFTL(t, smallCfg())
		churn(t, d, 10, true)
		return waf(env), erases(env), env.Metrics.Snapshot().Counters
	}
	waf1, er1, c1 := run()
	waf2, er2, c2 := run()
	if waf1 != waf2 || er1 != er2 {
		t.Fatalf("runs diverged: waf %d/%d erases %d/%d", waf1, waf2, er1, er2)
	}
	for k, v := range c1 {
		if c2[k] != v {
			t.Fatalf("counter %s diverged: %d vs %d", k, v, c2[k])
		}
	}
}

func TestGCLatencyChargedToTriggeringWrite(t *testing.T) {
	cfg := smallCfg()
	cfg.ReadLatency = 50 * time.Microsecond
	cfg.ProgramLatency = 200 * time.Microsecond
	cfg.EraseLatency = 2 * time.Millisecond
	env, d := newFTL(t, cfg)
	before := env.Now()
	churn(t, d, 10, false)
	withGC := env.Now() - before

	env2, d2 := newFTL(t, smallCfg())
	before2 := env2.Now()
	churn(t, d2, 10, false)
	zeroCost := env2.Now() - before2
	if withGC <= zeroCost {
		t.Fatalf("GC latencies not charged: %v with costs vs %v without", withGC, zeroCost)
	}
}

func TestComposesUnderFaultAndRetry(t *testing.T) {
	env := sim.NewEnv(1)
	raw := blockdev.New(env, blockdev.SamsungEVO860().Scale(262144))
	f := New(env, raw, smallCfg())
	var plan blockdev.FaultPlan
	faulty := blockdev.NewFault(env, f, plan)
	data := bytes.Repeat([]byte{0x5a}, 4096)
	if err := faulty.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := faulty.Discard(0, 4096); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if err := faulty.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x through FaultDev(FTL), want 0", i, b)
		}
	}
	if f.forward[0] != unmapped {
		t.Fatal("trim through FaultDev did not reach the FTL mapping")
	}
}
