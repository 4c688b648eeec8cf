package faulttest

import (
	"fmt"
	"sync"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/crashtest"
)

// stormClients is how many goroutines a storm runs on one mount.
const stormClients = 4

// storm runs stormClients clients on sys's mount and one model, client c
// writing and fsyncing files files of its own in cli<c>/, and calling
// pause, if set, after the ninth of every sixteen. It then requires that
// the plan injected faults, that retry absorbed every one, that the mount
// did not degrade, and that the mount holds exactly what the model does.
func storm(t *testing.T, sys *System, files int, pause func() error) {
	t.Helper()
	mo := crashtest.NewModel()
	errs := make([]error, stormClients)
	var wg sync.WaitGroup
	for c := 0; c < stormClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			target := crashtest.MountTarget(sys.Mount)
			dir := fmt.Sprintf("cli%d", c)
			if errs[c] = mo.Run(target, []crashtest.Step{{Op: crashtest.OpMkdir, Path: dir}}); errs[c] != nil {
				return
			}
			for i := 0; i < files; i++ {
				path := fmt.Sprintf("%s/f%04d", dir, i)
				if errs[c] = mo.Run(target, []crashtest.Step{
					{Op: crashtest.OpWrite, Path: path, Data: content(i, 512+(c*files+i)*37%4096)},
					{Op: crashtest.OpFsync, Path: path},
				}); errs[c] != nil {
					return
				}
				if pause != nil && i%16 == 8 {
					if errs[c] = pause(); errs[c] != nil {
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d broke the error contract: %v", c, err)
		}
	}
	if inj := sys.Counter("io.fault.read") + sys.Counter("io.fault.write"); inj == 0 {
		t.Fatal("plan injected no faults; sweep is vacuous")
	}
	if n := sys.Counter("io.error.read") + sys.Counter("io.error.write") + sys.Counter("io.error.flush"); n != 0 {
		t.Fatalf("%d commands exhausted retries under a retry-coverable plan", n)
	}
	if err := sys.Mount.Degraded(); err != nil {
		t.Fatalf("mount degraded under transient-only faults: %v", err)
	}
	if err := mo.Check(sys.Mount); err != nil {
		t.Fatal(err)
	}
}

// TestSeededFaultPlanSweep closes the ROADMAP faulttest gap: the
// multi-client fault storm of TestConcurrentClientsUnderFaultPlan, but
// swept across several FaultPlan seeds so the assertion covers fault
// timings the single fixed seed never exercises (run under -race by
// `make faults`). Each seed drives 4 client goroutines against one
// concurrently-configured betrfs-v0.6 mount while transient read and
// write faults fire underneath; the contract per seed is the same:
// no errors, every injected fault absorbed by retry, no degradation,
// and every file reads back intact.
func TestSeededFaultPlanSweep(t *testing.T) {
	seeds := []uint64{7, 23, 51, 97}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			plan := blockdev.FaultPlan{
				Seed:                 seed,
				TransientReadProb:    0.03,
				TransientWriteProb:   0.03,
				TransientPersistence: 2,
			}
			pol := blockdev.DefaultRetryPolicy()
			pol.MaxAttempts = 6
			sys, err := BuildConcurrent("betrfs-v0.6", seed, DefaultScale, plan, pol, 2)
			if err != nil {
				t.Fatalf("build under fault plan: %v", err)
			}
			storm(t, sys, 32, nil)
		})
	}
}
