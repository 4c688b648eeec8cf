package bench

import (
	"bytes"
	"strings"
	"testing"

	"betrfs/internal/systems"
	"betrfs/internal/workload"
)

// TestBuildAllSystems mounts every Table 1 and Table 3 system through
// Build's testbed stack (scaled SSD, FTL, testbed memory). The catalogue's
// own tests cover every name over a bare device, recovery and unknown
// names.
func TestBuildAllSystems(t *testing.T) {
	for _, name := range append(append([]string{}, systems.Table1...), systems.Ladder...) {
		name := name
		t.Run(name, func(t *testing.T) {
			in := Build(name, 256)
			f, err := in.Mount.Create("probe")
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte("x"))
			f.Close()
			if _, err := in.Mount.Stat("probe"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestScaledParameters(t *testing.T) {
	p := Scaled(64)
	if p.SeqBytes != (80<<30)/64 {
		t.Fatalf("seq bytes %d", p.SeqBytes)
	}
	if p.RandCount < 1000 {
		t.Fatalf("random-write count %d too small to exercise the tree", p.RandCount)
	}
	if p.TreeSpec.FileCount() < 500 {
		t.Fatalf("tree too small: %d files", p.TreeSpec.FileCount())
	}
}

func TestShadeRule(t *testing.T) {
	// Throughput (higher better).
	if Shade(100, 100, false) != "green" || Shade(86, 100, false) != "green" {
		t.Fatal("within 15%% of best must be green")
	}
	if Shade(29, 100, false) != "red" {
		t.Fatal("below 30%% of best must be red")
	}
	if Shade(50, 100, false) != "" {
		t.Fatal("middle values unshaded")
	}
	// Latency (lower better).
	if Shade(1.0, 1.0, true) != "green" || Shade(1.1, 1.0, true) != "green" {
		t.Fatal("near-best latency must be green")
	}
	if Shade(4.0, 1.0, true) != "red" {
		t.Fatal("3.33x best latency must be red")
	}
}

func TestPaperReferenceTableComplete(t *testing.T) {
	for _, sys := range systems.Table1 {
		if _, ok := PaperMicro[sys]; !ok {
			t.Errorf("missing paper reference for %s", sys)
		}
	}
	for _, sys := range systems.Ladder {
		if _, ok := PaperMicro[sys]; !ok {
			t.Errorf("missing paper reference for ladder rung %s", sys)
		}
	}
}

func TestWriteMicroTable(t *testing.T) {
	rows := []MicroResults{
		{System: "ext4", SeqRead: 500, SeqWrite: 300, Rand4K: 16, Rand4B: 0.02, TokuBench: 10, Grep: 5, Rm: 2, Find: 0.5},
		{System: "betrfs-v0.6", SeqRead: 480, SeqWrite: 310, Rand4K: 110, Rand4B: 0.3, TokuBench: 12, Grep: 1.4, Rm: 1.6, Find: 0.2},
	}
	var buf bytes.Buffer
	WriteMicroTable(&buf, rows)
	out := buf.String()
	for _, want := range []string{"ext4", "betrfs-v0.6", "seq_read", "rm (s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeMicroRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A very coarse end-to-end run of the harness path on one system.
	in := Build("betrfs-v0.6", 512)
	r := workload.SequentialWrite(in.Env, in.Mount, 64<<20, 1<<20)
	if r.MBps() <= 0 {
		t.Fatal("no throughput measured")
	}
}
