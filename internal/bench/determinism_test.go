package bench

import (
	"fmt"
	"strings"
	"testing"
)

// goldenMicro2048 pins every Table 1 cell at scale 2048 to the exact
// float64 the deterministic simulation must produce. The single-worker
// deterministic mode takes no locks and charges costs in a fixed order,
// so ANY drift here is a real behavior change — there is no tolerance.
// Regenerate with: go run ./cmd/betrbench -table 1 -scale 2048 -systems
// betrfs-v0.4,betrfs-v0.6 -json (and update this table in the same
// commit, explaining the change).
var goldenMicro2048 = []MicroResults{
	{
		System:  "betrfs-v0.4",
		SeqRead: 337.11949601185756, SeqWrite: 121.50524469039345,
		Rand4K: 165.54508201169665, Rand4B: 0.8479163841831301,
		TokuBench: 47.41995138094575,
		Grep:      0.056302333, Rm: 0.445036355, Find: 0.002773996,
	},
	{
		System:  "betrfs-v0.6",
		SeqRead: 474.2990339531994, SeqWrite: 359.72580211410127,
		Rand4K: 204.73230238516834, Rand4B: 0.8596151501293936,
		TokuBench: 60.02070222253708,
		Grep:      0.033174724, Rm: 0.067394941, Find: 0.00171564,
	},
}

// TestGoldenCellsDeterministic asserts the two halves of the determinism
// contract: the deterministic (single-goroutine) configuration reproduces
// the golden benchmark cells bit-for-bit, and the parallel system runner
// — at any worker count — produces byte-identical rows, because each cell
// runs on a private sim.Env and rows land at fixed indexes.
func TestGoldenCellsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	systems := []string{"betrfs-v0.4", "betrfs-v0.6"}

	// Sequential reference run.
	var seq []MicroResults
	for _, s := range systems {
		r, _ := RunMicroCollect(s, 2048)
		seq = append(seq, r)
	}
	for i, want := range goldenMicro2048 {
		if seq[i] != want {
			t.Errorf("golden drift for %s:\n got  %+v\n want %+v\n re-pin as:\n%s,",
				want.System, seq[i], want, strings.TrimPrefix(fmt.Sprintf("%#v", seq[i]), "bench."))
		}
	}

	// The parallel runner must reproduce the same rows exactly.
	for _, workers := range []int{1, 2, 4} {
		rows, _, info := RunMicroParallel(systems, 2048, workers)
		for _, st := range info.Statuses {
			if !st.OK {
				t.Fatalf("workers=%d: %s failed: %s", workers, st.System, st.Err)
			}
		}
		for i := range rows {
			if rows[i] != seq[i] {
				t.Errorf("workers=%d: row %s differs from sequential run:\n got  %+v\n want %+v",
					workers, systems[i], rows[i], seq[i])
			}
		}
	}
}

// TestParallelRunnerCapturesPanics asserts the satellite fix: a system
// that panics mid-run is reported in the status list instead of killing
// the worker, and healthy systems still produce rows.
func TestParallelRunnerCapturesPanics(t *testing.T) {
	rows, _, info := RunMicroParallel([]string{"ext4", "no-such-system"}, 1024, 2)
	if len(info.Statuses) != 2 {
		t.Fatalf("want 2 statuses, got %d", len(info.Statuses))
	}
	if !info.Statuses[0].OK {
		t.Fatalf("ext4 should succeed: %s", info.Statuses[0].Err)
	}
	if rows[0].SeqRead <= 0 {
		t.Fatal("ext4 row missing")
	}
	if info.Statuses[1].OK || info.Statuses[1].Err == "" {
		t.Fatalf("bogus system must fail with an error, got %+v", info.Statuses[1])
	}
	snap := info.Metrics
	if snap.Counters["bench.parallel.panics"] != 1 || snap.Counters["bench.parallel.systems"] != 2 {
		t.Fatalf("runner counters wrong: %v", snap.Counters)
	}
}

// TestClientsSmoke drives the multi-client mode end to end: all clients
// must complete without errors and the data must be durable.
func TestClientsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := RunClients("betrfs-v0.6", 2048, 4, 2)
	if len(r.Errors) > 0 {
		t.Fatalf("client errors: %v", r.Errors)
	}
	if r.Ops == 0 || r.SimTime <= 0 {
		t.Fatalf("no work measured: %+v", r)
	}
}
