package crashtest

import (
	"testing"

	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// TestFsyncedBlindWritesSurvive crashes an fsync'd run of sub-page writes on
// BetrFS. Each write is a blind update (DESIGN.md §5.5), one message that
// carries only the patched bytes, and the fsync after them is a log flush,
// so the patches must be in the log with their payloads: a patch logged by
// key alone would be lost, however small the file.
func TestFsyncedBlindWritesSurvive(t *testing.T) {
	sys := SystemByName("betrfs-v0.6")
	steps := blindWriteProgram()
	n := ProbeUnflushed(sys, steps)
	report(t, Sweep(sys, steps, append(PrefixSpecs(n), tornSpecs(n, 1)...)))
}

// blindWriteProgram writes a three-block file and syncs it, which leaves its
// pages cached clean. It then writes 4, 400 and 1 000 bytes into each of
// those blocks and into three blocks past them that no page holds, fsyncs,
// and writes four more bytes without a sync.
func blindWriteProgram() []Step {
	rnd := sim.NewRand(11)
	data := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(1 + rnd.Intn(255))
		}
		return b
	}
	const blk = vfs.PageSize
	steps := []Step{
		{Op: OpWrite, Path: "f", Data: data(3 * blk)},
		{Op: OpSync},
	}
	for i, n := range []int{4, 400, 1000} {
		steps = append(steps,
			Step{Op: OpWrite, Path: "f", Off: int64(i*blk + 100), Data: data(n)},
			Step{Op: OpWrite, Path: "f", Off: int64((3+i)*blk + 100), Data: data(n)},
		)
	}
	return append(steps,
		Step{Op: OpFsync, Path: "f"},
		Step{Op: OpWrite, Path: "f", Off: blk + 2000, Data: data(4)},
	)
}
