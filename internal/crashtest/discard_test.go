package crashtest

import (
	"fmt"
	"testing"

	"betrfs/internal/sim"
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
	return removeHeavyWorkload(11, n, rounds)
}

// TestDiscardCrashSweep crashes the remove-heavy workload at strided
// prefix points of the unflushed-write stream on every FTL-backed
// system. The workload's repeated sync rounds make the later crash
// points land after several checkpoints' worth of frees and deferred
// discards, so a premature TRIM (one issued while an older superblock
// generation or log tail still referenced the extent) would surface here
// as a lost acknowledged file.
func TestDiscardCrashSweep(t *testing.T) {
	budget := 40
	if testing.Short() {
		budget = 12
	}
	sweepEach(t, ftlSystems(), removeHeavyFor(t), func(n int) []CrashSpec { return prefixSpecsFor(n, budget) })
}

// TestDiscardTornCrashSweep adds mid-sector tears to the same workload:
// a discard zeroes whole ranges, so a torn neighboring write must not be
// able to smear into a trimmed-then-reallocated extent.
func TestDiscardTornCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("torn discard sweep skipped in -short")
	}
	sweepEach(t, ftlSystems(), removeHeavyFor(t), func(n int) []CrashSpec { return tornSpecs(n, n/8+1) })
}

// removeHeavyWorkload builds the discard-stress workload: a durable
// population, then rounds of interleaved remove-and-replace churn each
// sealed with a full sync, then an unsynced mutation tail. Every sync
// boundary is a checkpoint that frees the removed files' space, so by
// the later rounds the file systems are issuing discards for space freed
// one or two checkpoints earlier — a crash cut anywhere in the write
// stream lands between some free and its deferred discard, which is
// exactly the window where premature trimming would zero extents an
// older superblock generation still references. Removed names are never
// reused (replacements get fresh names), matching the workload rule the
// oracle assumes everywhere else.
func removeHeavyWorkload(seed uint64, nFiles, rounds int) []Step {
	rnd := sim.NewRand(seed)
	var steps []Step
	steps = append(steps, Step{Op: OpMkdir, Path: "d"})
	data := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(1 + rnd.Intn(255))
		}
		return b
	}
	var live []string
	next := 0
	create := func(n int) {
		p := fmt.Sprintf("d/f%03d", next)
		next++
		steps = append(steps, Step{Op: OpWrite, Path: p, Data: data(n)})
		live = append(live, p)
	}
	for i := 0; i < nFiles; i++ {
		create(512 + rnd.Intn(4096))
	}
	steps = append(steps, Step{Op: OpSync})
	remove := func() {
		j := rnd.Intn(len(live))
		steps = append(steps, Step{Op: OpRemove, Path: live[j]})
		live = append(live[:j], live[j+1:]...)
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < nFiles/2; i++ {
			remove()
			create(512 + rnd.Intn(4096))
		}
		steps = append(steps, Step{Op: OpSync})
	}
	// Unsynced tail: removes and new files whose fate the crash decides.
	for i := 0; i < nFiles/2; i++ {
		remove()
		if i%2 == 0 {
			create(256 + rnd.Intn(2048))
		}
	}
	return steps
}
