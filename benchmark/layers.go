package main

import (
	"fmt"
	"runtime"
	"time"
)

// driverResult is one layer driver's measurement.
type driverResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Ops         int     `json:"ops"`
}

// runLayerDrivers times each layer's public API, called directly on
// generated inputs, for d of host time each.
func runLayerDrivers(seed uint64, d time.Duration) (map[string]driverResult, error) {
	out := map[string]driverResult{}
	for _, drv := range layerDrivers() {
		r, err := runLayerDriver(drv, seed, d)
		if err != nil {
			return nil, fmt.Errorf("layer driver %s: %w", drv.name, err)
		}
		out[drv.name] = r
	}
	return out, nil
}

func runLayerDriver(drv layerDriver, seed uint64, d time.Duration) (driverResult, error) {
	op, cleanup, err := drv.setup(seed)
	if err != nil {
		return driverResult{}, err
	}
	if cleanup != nil {
		defer cleanup()
	}
	const batch = 64 // ops between looks at the clock
	n := 0
	for ; n < batch; n++ { // warm-up
		if err := op(n); err != nil {
			return driverResult{}, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	first, start := n, time.Now()
	for time.Since(start) < d {
		for k := 0; k < batch; k++ {
			if err := op(n); err != nil {
				return driverResult{}, err
			}
			n++
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	ops := n - first
	return driverResult{
		NsPerOp:     float64(elapsed) / float64(ops),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
		Ops:         ops,
	}, nil
}
