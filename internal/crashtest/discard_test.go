package crashtest

import (
	"testing"
)

// ftlSystems mirrors Systems() with every file system built over the
// simulated FTL, so the crash sweeps exercise discard-under-crash: the
// FTL forwards TRIMs to the tracked device, where the crash spec can cut
// the stream between a checkpoint's free and the deferred discard that
// zeroes the extent.
func ftlSystems() []System {
	var out []System
	for _, sys := range Systems() {
		sys.Name += "+ftl"
		sys.overFTL = true
		out = append(out, sys)
	}
	return out
}

func removeHeavyFor(t *testing.T) []Step {
	n, rounds := 12, 4
	if testing.Short() {
		n, rounds = 8, 2
	}
	return RemoveHeavyWorkload(11, n, rounds)
}

// TestDiscardCrashSweep crashes the remove-heavy workload at strided
// prefix points of the unflushed-write stream on every FTL-backed
// system. The workload's repeated sync rounds make the later crash
// points land after several checkpoints' worth of frees and deferred
// discards, so a premature TRIM (one issued while an older superblock
// generation or log tail still referenced the extent) would surface here
// as a lost acknowledged file.
func TestDiscardCrashSweep(t *testing.T) {
	steps := removeHeavyFor(t)
	for _, sys := range ftlSystems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			n := ProbeUnflushed(sys, steps)
			budget := 40
			if testing.Short() {
				budget = 12
			}
			report(t, Sweep(sys, steps, prefixSpecsFor(n, budget)))
		})
	}
}

// TestDiscardTornCrashSweep adds mid-sector tears to the same workload:
// a discard zeroes whole ranges, so a torn neighboring write must not be
// able to smear into a trimmed-then-reallocated extent.
func TestDiscardTornCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("torn discard sweep skipped in -short")
	}
	steps := removeHeavyFor(t)
	for _, sys := range ftlSystems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			n := ProbeUnflushed(sys, steps)
			var specs []CrashSpec
			stride := n/8 + 1
			for k := 0; k < n; k += stride {
				for _, num := range []int{1, 3} {
					specs = append(specs, CrashSpec{Kind: CrashTorn, Keep: k, TornNum: num, TornDen: 4})
				}
			}
			report(t, Sweep(sys, steps, specs))
		})
	}
}
