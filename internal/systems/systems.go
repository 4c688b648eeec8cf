// Package systems is the catalogue of the file systems the evaluation
// compares — Table 1's, Table 3's cumulative ladder from v0.4 to v0.6, and
// the HDD ablation's pair — and the one place that decides what a name such
// as "ext4", "betrfs+PGSH" or "betrfs-v0.6" stands for. The caller composes
// the device stack (an FTL, a fault-and-retry stack, a crash-tracked
// device, a remote device behind a read cache) and the machine's memory
// (Sizes); the catalogue mounts the file system on top, with BetrFS over
// the SFL from +SFL up and over ext4 through the southbound layer for v0.4.
package systems

import (
	"errors"
	"fmt"
	"strings"

	"betrfs/internal/betrfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/cowfs"
	"betrfs/internal/extfs"
	"betrfs/internal/kmem"
	"betrfs/internal/logfs"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
	"betrfs/internal/southbound"
	"betrfs/internal/vfs"
)

// The name lists the harnesses sweep.
var (
	// Table1 lists Table 1's file systems in paper order.
	Table1 = []string{"ext4", "btrfs", "xfs", "f2fs", "zfs", "betrfs-v0.4", "betrfs-v0.6"}
	// Ladder lists Table 3's rows: BetrFS v0.4, then one rung per
	// optimization, each on top of every rung before it. The top rung is
	// the configuration "betrfs-v0.6" names.
	Ladder []string
	// HDD lists the HDD ablation's pair, which run on the hard disk.
	HDD = []string{"ext4-hdd", "betrfs-v0.6-hdd"}
	// Core lists one system per baseline family plus both BetrFS
	// generations: the set the serve, aging and fault harnesses sweep.
	Core = []string{"ext4", "f2fs", "btrfs", "betrfs-v0.4", "betrfs-v0.6"}
	// Recoverable lists the Core systems that can be remounted after a
	// crash: the crash harness's set. BetrFS v0.4 is not among them, as
	// its southbound layer creates its files afresh at every mount.
	Recoverable = []string{"ext4", "f2fs", "btrfs", "betrfs-v0.6"}
)

// System is what one name stands for.
type System struct {
	Name string
	// Betr is the BetrFS configuration of a BetrFS system (the zero value
	// for a baseline). New builds from the copy it is called on, so a
	// caller may edit its copy first.
	Betr betrfs.Config

	// format and recover build a baseline; both are nil for BetrFS.
	format  func(*sim.Env, blockdev.Device) vfs.FS
	recover func(*sim.Env, blockdev.Device) (vfs.FS, error)
	sfl     bool // BetrFS over the SFL rather than southbound ext4
	hdd     bool // on the hard disk rather than the SSD
}

// Sizes is the memory a caller's machine gives a system, and whether the
// system runs in concurrent mode. A zero cache size keeps the component's
// default of 1 GiB.
type Sizes struct {
	// NodeCache is BetrFS's Bε-tree node cache; the baselines have none.
	NodeCache int64
	// PageCache is the VFS page cache.
	PageCache int64
	// Concurrent switches on the mount's client lock and the Bε-tree's
	// reader/writer locking protocol (DESIGN.md §9).
	Concurrent bool
}

// Stack is a mounted system.
type Stack struct {
	FS    vfs.FS
	Mount *vfs.Mount
	// SFL is the simple file layer under an SFL-backed BetrFS, nil for
	// every other system.
	SFL *sfl.SFL
}

// rungs are Table 3's optimizations in ladder order; each edits the
// system of the rung below it.
var rungs = []struct {
	name string
	add  func(*System)
}{
	{"SFL", func(s *System) { s.sfl = true; s.Betr.Tree.ReadAhead = true }},
	{"RG", func(s *System) {
		s.Betr.RangeMessages = true
		s.Betr.Tree.CoalesceRangeDeletes = true
	}},
	{"MLC", func(s *System) { s.Betr.CooperativeMem = true }},
	{"PGSH", func(s *System) { s.Betr.Tree.PageSharing = true }},
	{"DC", func(s *System) { s.Betr.ReaddirInstantiates = true }},
	{"CL", func(s *System) { s.Betr.ConditionalLogging = true }},
	{"QRY", func(s *System) { s.Betr.Tree.LegacyApplyOnQuery = false }},
}

var (
	catalogue = map[string]System{}
	names     []string // in the order init adds them
)

func init() {
	add := func(s System) {
		catalogue[s.Name] = s
		names = append(names, s.Name)
	}
	ext := func(name string, p extfs.Profile) System {
		return System{
			Name:    name,
			format:  func(env *sim.Env, dev blockdev.Device) vfs.FS { return extfs.New(env, dev, p) },
			recover: func(env *sim.Env, dev blockdev.Device) (vfs.FS, error) { return asFS(extfs.Recover(env, dev, p)) },
		}
	}
	cow := func(name string, p cowfs.Profile) System {
		return System{
			Name:    name,
			format:  func(env *sim.Env, dev blockdev.Device) vfs.FS { return cowfs.New(env, dev, p) },
			recover: func(env *sim.Env, dev blockdev.Device) (vfs.FS, error) { return asFS(cowfs.Recover(env, dev, p)) },
		}
	}
	add(ext("ext4", extfs.Ext4Profile()))
	add(ext("xfs", extfs.XFSProfile()))
	add(System{
		Name:    "f2fs",
		format:  func(env *sim.Env, dev blockdev.Device) vfs.FS { return logfs.New(env, dev) },
		recover: func(env *sim.Env, dev blockdev.Device) (vfs.FS, error) { return asFS(logfs.Recover(env, dev)) },
	})
	add(cow("btrfs", cowfs.BtrfsProfile()))
	add(cow("zfs", cowfs.ZFSProfile()))

	rung := System{Name: "betrfs-v0.4", Betr: betrfs.V04Config()}
	add(rung)
	Ladder = append(Ladder, rung.Name)
	for _, r := range rungs {
		r.add(&rung)
		rung.Name = "betrfs+" + r.name
		add(rung)
		Ladder = append(Ladder, rung.Name)
	}
	rung.Name = "betrfs-v0.6"
	add(rung)

	for _, base := range []string{"ext4", "betrfs-v0.6"} {
		s := catalogue[base]
		s.Name, s.hdd = base+"-hdd", true
		add(s)
	}
}

// asFS converts a constructor's typed result, so that a failed one yields a
// nil vfs.FS rather than an interface holding a nil pointer.
func asFS[T vfs.FS](fs T, err error) (vfs.FS, error) {
	if err != nil {
		return nil, err
	}
	return fs, nil
}

// Names lists every name the catalogue knows: the baselines, the ladder,
// v0.6, then the HDD pair.
func Names() []string { return append([]string(nil), names...) }

// Lookup returns the system name stands for. An unknown name is an error
// that lists the known ones.
func Lookup(name string) (System, error) {
	s, ok := catalogue[name]
	if !ok {
		return System{}, fmt.Errorf("unknown system %q; known systems: %s", name, strings.Join(Names(), ", "))
	}
	return s, nil
}

// isBetrFS reports whether s is a BetrFS configuration.
func (s System) isBetrFS() bool { return s.format == nil }

// Device returns the unscaled drive s runs on: the paper's Samsung 860 EVO
// SSD, or its Toshiba DT01 hard disk for the HDD pair.
func (s System) Device() blockdev.Profile {
	if s.hdd {
		return blockdev.ToshibaDT01()
	}
	return blockdev.SamsungEVO860()
}

// Testbed returns the memory of the paper's testbed at 1/scale: 32 GB, all
// of it page cache for a baseline, while BetrFS gives half to its node cache
// and half to the page cache.
func (s System) Testbed(scale int64) Sizes {
	ram := (32 << 30) / scale
	if s.isBetrFS() {
		return Sizes{NodeCache: ram / 2, PageCache: ram / 2}
	}
	return Sizes{PageCache: ram}
}

// New formats s over dev and mounts it.
func (s System) New(env *sim.Env, dev blockdev.Device, sz Sizes) (*Stack, error) {
	return s.mount(env, dev, sz, false)
}

// Recover remounts s over a device it was formatted on, replaying its
// journal or log: the entry point after a crash.
func (s System) Recover(env *sim.Env, dev blockdev.Device, sz Sizes) (*Stack, error) {
	return s.mount(env, dev, sz, true)
}

func (s System) mount(env *sim.Env, dev blockdev.Device, sz Sizes, recovering bool) (*Stack, error) {
	st := &Stack{}
	var err error
	switch {
	case s.isBetrFS():
		st.FS, st.SFL, err = s.betrfs(env, dev, sz, recovering)
	case recovering:
		st.FS, err = s.recover(env, dev)
	default:
		st.FS = s.format(env, dev)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	vcfg := vfs.DefaultConfig()
	if sz.PageCache > 0 {
		vcfg.CacheBytes = sz.PageCache
	}
	vcfg.Concurrent = sz.Concurrent
	st.Mount = vfs.NewMount(env, st.FS, vcfg)
	return st, nil
}

// betrfs builds a BetrFS system. Opening an SFL-backed store over a device
// it formatted before replays the superblock and the log, so formatting and
// recovery are one call.
func (s System) betrfs(env *sim.Env, dev blockdev.Device, sz Sizes, recovering bool) (vfs.FS, *sfl.SFL, error) {
	if recovering && !s.sfl {
		return nil, nil, errors.New("no recovery entry point: the southbound layer creates its files at mount")
	}
	cfg := s.Betr
	if sz.NodeCache > 0 {
		cfg.Tree.CacheBytes = sz.NodeCache
	}
	cfg.Tree.Concurrent = sz.Concurrent
	alloc := kmem.New(env, cfg.CooperativeMem)
	if !s.sfl {
		lower := extfs.New(env, dev, extfs.Ext4Profile())
		fs, err := asFS(betrfs.New(env, alloc, cfg, southbound.New(env, lower, southbound.DefaultLayout(dev.Size()))))
		return fs, nil, err
	}
	backend, err := sfl.NewDefault(env, dev)
	if err != nil {
		return nil, nil, err
	}
	fs, err := asFS(betrfs.New(env, alloc, cfg, backend))
	return fs, backend, err
}
