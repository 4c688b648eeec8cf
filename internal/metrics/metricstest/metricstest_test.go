package metricstest

import (
	"testing"

	"betrfs/internal/metrics"
)

// fatalTB records a Fatalf instead of stopping the test.
type fatalTB struct {
	testing.TB
	failed bool
}

func (f *fatalTB) Helper()               {}
func (f *fatalTB) Fatalf(string, ...any) { f.failed = true }

func TestCounterReadsRegisteredValue(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("wal.fsync.count").Add(3)
	reg.Counter("wal.bytes.pad")
	if got := Counter(t, reg, "wal.fsync.count"); got != 3 {
		t.Fatalf("wal.fsync.count = %d, want 3", got)
	}
	if got := Counter(t, reg, "wal.bytes.pad"); got != 0 {
		t.Fatalf("wal.bytes.pad = %d, want 0", got)
	}
}

func TestCounterRejectsUnregisteredName(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("wal.fsync.count")
	tb := &fatalTB{TB: t}
	Counter(tb, reg, "wal.fsyncs.count")
	if !tb.failed {
		t.Fatal("a misspelled counter name read as 0 instead of failing")
	}
	if _, ok := reg.Snapshot().Counters["wal.fsyncs.count"]; ok {
		t.Fatal("reading an unregistered name registered it")
	}
}
