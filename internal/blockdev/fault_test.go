package blockdev

import (
	"bytes"
	"testing"

	"betrfs/internal/sim"
)

// TestFailedWriteLandsNothing checks that a write FaultDev reports as
// failed leaves the medium as it was, whichever fault failed it: a bad
// range under part of the write, a dead write path, or a transient fault.
func TestFailedWriteLandsNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan FaultPlan
		kill bool
	}{
		{"badrange", FaultPlan{Seed: 1, BadSectors: []Range{{Off: 8192, Len: 4096}}}, false},
		{"dead", FaultPlan{Seed: 1}, true},
		{"transient", FaultPlan{Seed: 1, TransientWriteProb: 1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			dev := New(env, SamsungEVO860().Scale(4096))
			old := bytes.Repeat([]byte{0xaa}, 8192)
			if err := dev.WriteAt(old, 4096); err != nil {
				t.Fatal(err)
			}
			fd := NewFault(env, dev, tc.plan)
			if tc.kill {
				fd.FailWritesNow()
			}
			if err := fd.WriteAt(bytes.Repeat([]byte{0x55}, 8192), 4096); err == nil {
				t.Fatal("write succeeded under a failing plan")
			}
			got := make([]byte, len(old))
			if err := dev.ReadAt(got, 4096); err != nil {
				t.Fatal(err)
			}
			if i := bytes.IndexByte(got, 0x55); i >= 0 {
				t.Fatalf("the failed write landed: byte %d of the range holds its data", i)
			}
		})
	}
}
