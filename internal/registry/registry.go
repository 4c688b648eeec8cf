// Package registry names the shares one fsserved instance exports
// (DESIGN.md §14.1). A share is either a mount share — a vfs.Mount a
// client ATTACHes to for file-class ops — or a block share — a
// blockdev.Device a client BOPENs for block-class ops, which is how one
// node's file system runs over another node's device. Each share records
// the sim.Env of the machine that hosts it, so a registry can roll every
// hosted machine's metrics into one snapshot without double-counting
// shares that live on the same machine.
package registry

import (
	"sort"
	"sync"

	"betrfs/internal/blockdev"
	"betrfs/internal/metrics"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// Registry is a named-share table. It is safe for concurrent use; shares
// are added at daemon start-up and looked up on every ATTACH/BOPEN.
type Registry struct {
	mu      sync.RWMutex
	mounts  map[string]*mountShare
	devices map[string]*deviceShare
}

type mountShare struct {
	env   *sim.Env
	mount *vfs.Mount
}

type deviceShare struct {
	env *sim.Env
	dev blockdev.Device
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		mounts:  make(map[string]*mountShare),
		devices: make(map[string]*deviceShare),
	}
}

// AddMount exports mount under name. A name is unique across both share
// kinds; re-registering it panics (shares are wired once at start-up, so
// a collision is a configuration bug, not a runtime condition).
func (r *Registry) AddMount(name string, env *sim.Env, mount *vfs.Mount) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFresh(name)
	r.mounts[name] = &mountShare{env: env, mount: mount}
}

// AddDevice exports dev under name as a block share.
func (r *Registry) AddDevice(name string, env *sim.Env, dev blockdev.Device) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFresh(name)
	r.devices[name] = &deviceShare{env: env, dev: dev}
}

func (r *Registry) checkFresh(name string) {
	if _, ok := r.mounts[name]; ok {
		panic("registry: duplicate share " + name)
	}
	if _, ok := r.devices[name]; ok {
		panic("registry: duplicate share " + name)
	}
}

// Mount returns the mount share name, or nil if no such mount share.
func (r *Registry) Mount(name string) *vfs.Mount {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if s, ok := r.mounts[name]; ok {
		return s.mount
	}
	return nil
}

// Device returns the block share name, or nil if no such block share.
func (r *Registry) Device(name string) blockdev.Device {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if s, ok := r.devices[name]; ok {
		return s.dev
	}
	return nil
}

// Share describes one registered share for listings (fsshell `shares`,
// the SHARES wire op).
type Share struct {
	Name string
	// Mount is true for a mount share, false for a block share.
	Mount bool
	// Size is the capacity of a block share in bytes; zero for mounts.
	Size int64
}

// Shares lists every share sorted by name.
func (r *Registry) Shares() []Share {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Share, 0, len(r.mounts)+len(r.devices))
	for name := range r.mounts {
		out = append(out, Share{Name: name, Mount: true})
	}
	for name, s := range r.devices {
		out = append(out, Share{Name: name, Size: s.dev.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot merges the metrics of every distinct machine hosting a share
// into one snapshot. Shares sharing a sim.Env (the common case: one
// machine exports a mount and the device beneath it) are counted once.
func (r *Registry) Snapshot() metrics.Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var snap metrics.Snapshot
	seen := make(map[*metrics.Registry]bool)
	merge := func(env *sim.Env) {
		if env == nil || env.Metrics == nil || seen[env.Metrics] {
			return
		}
		seen[env.Metrics] = true
		snap.Merge(env.Metrics.Snapshot())
	}
	// Deterministic merge order: sorted names, mounts then devices.
	for _, name := range sortedKeys(r.mounts) {
		merge(r.mounts[name].env)
	}
	for _, name := range sortedKeys(r.devices) {
		merge(r.devices[name].env)
	}
	if snap.Counters == nil {
		snap.Counters = map[string]int64{}
	}
	return snap
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
