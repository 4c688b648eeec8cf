package crashtest

import (
	"betrfs/internal/blockdev"
	"betrfs/internal/ftl"
	"betrfs/internal/sim"
	"betrfs/internal/systems"
)

// System is one catalogue system under crash test, mounted over the
// crash-tracked device directly or through a simulated FTL.
type System struct {
	Name string
	sys  systems.System
	// overFTL puts a simulated FTL between the file system and the tracked
	// device, so the FTL's forwarded TRIMs are part of the stream a crash
	// cuts.
	overFTL bool
}

// crashSizes is the machine every crash trial runs on. BetrFS gets a
// deliberately tiny node cache: evictions force tree-node writeouts during
// the workload, so the unflushed-write stream the crash cuts contains
// in-flight node writes racing the log, not just the log tail.
var crashSizes = systems.Sizes{NodeCache: 1 << 20, PageCache: 128 << 20}

// Systems returns the file systems under test, the catalogue's Recoverable
// set: the three baselines plus BetrFS v0.6 (the raw SFL-backed store is
// covered separately by RunStoreTrial).
func Systems() []System {
	var out []System
	for _, name := range systems.Recoverable {
		out = append(out, SystemByName(name))
	}
	return out
}

// SystemByName looks up a system; it panics on unknown names (harness
// wiring error, not a runtime condition).
func SystemByName(name string) System {
	sys, err := systems.Lookup(name)
	if err != nil {
		panic("crashtest: " + err.Error())
	}
	return System{Name: name, sys: sys}
}

func (s System) device(env *sim.Env, dev blockdev.Device) blockdev.Device {
	if s.overFTL {
		return ftl.New(env, dev, ftl.DefaultConfig())
	}
	return dev
}

// build formats a fresh file system over dev.
func (s System) build(env *sim.Env, dev blockdev.Device) (*systems.Stack, error) {
	return s.sys.New(env, s.device(env, dev), crashSizes)
}

// recover re-mounts the (crashed) device.
func (s System) recover(env *sim.Env, dev blockdev.Device) (*systems.Stack, error) {
	return s.sys.Recover(env, s.device(env, dev), crashSizes)
}

// flushGate passes every device command through, except that once held it
// drops cache flushes: the writes of a sync the crash cuts short stay in the
// volatile cache, where the crash can keep any prefix of them. A prefix of
// the issue order is a state a device honouring every flush can reach too.
type flushGate struct {
	blockdev.Device
	held bool
}

func (g *flushGate) Flush() error {
	if g.held {
		return nil
	}
	return g.Device.Flush()
}
