package bench

import (
	"fmt"
	"sync"

	"betrfs/internal/metrics"
)

// Parallel system runner. Each system's full benchmark row already runs on
// private state (every cell Builds a fresh sim.Env, device, and mount), so
// rows can run on worker goroutines with no shared mutable state at all;
// results land at fixed row indexes, making the output byte-identical to a
// sequential run regardless of scheduling. A panicking system no longer
// aborts its goroutine silently: the panic is captured into a RunStatus
// that betrbench folds into the BENCH JSON summary.

// RunStatus is the outcome of one system's benchmark run.
type RunStatus struct {
	System string `json:"system"`
	OK     bool   `json:"ok"`
	Err    string `json:"error,omitempty"`
}

// ParallelInfo summarizes a parallel run for the BENCH JSON document:
// worker count, per-system outcomes, and the runner's own bench.parallel.*
// counters. The runner metrics live in a registry owned by the runner —
// not in any system's sim.Env — so they never perturb per-system
// snapshots or simulated results.
type ParallelInfo struct {
	Workers  int              `json:"workers"`
	Statuses []RunStatus      `json:"statuses"`
	Metrics  metrics.Snapshot `json:"metrics"`
}

// RunParallel runs collect — RunMicroCollect for a Table 1/3 row,
// RunAppsCollect for a Figure 2 row — for every system on a pool of
// min(workers, len(systems)) goroutines. rows[i]/snaps[i] correspond to
// systems[i]; a failed system leaves its row zero-valued and is reported
// in the returned ParallelInfo.
func RunParallel[R any](systems []string, scale int64, workers int, collect func(string, int64) (R, metrics.Snapshot)) ([]R, []metrics.Snapshot, *ParallelInfo) {
	if workers < 1 {
		workers = 1
	}
	reg := metrics.NewRegistry()
	mSystems := reg.Counter("bench.parallel.systems")
	mPanics := reg.Counter("bench.parallel.panics")
	mWorkers := reg.Gauge("bench.parallel.workers")
	if workers > len(systems) {
		workers = len(systems)
	}
	mWorkers.Set(int64(workers))

	rows := make([]R, len(systems))
	snaps := make([]metrics.Snapshot, len(systems))
	info := &ParallelInfo{Workers: workers, Statuses: make([]RunStatus, len(systems))}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				st := RunStatus{System: systems[i], OK: true}
				if err := runProtected(systems[i], func() { rows[i], snaps[i] = collect(systems[i], scale) }); err != nil {
					st.OK = false
					st.Err = err.Error()
					mPanics.Inc()
				}
				mSystems.Inc()
				info.Statuses[i] = st
			}
		}()
	}
	for i := range systems {
		next <- i
	}
	close(next)
	wg.Wait()
	info.Metrics = reg.Snapshot()
	return rows, snaps, info
}

// runProtected converts a panic from one system's run into an error so the
// worker survives to take the next job.
func runProtected(system string, job func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", system, r)
		}
	}()
	job()
	return nil
}
