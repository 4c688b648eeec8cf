// Package registry names the shares one fsserved instance exports
// (DESIGN.md §14.1). A share is either a mount share — a vfs.Mount a
// client ATTACHes to for file-class ops — or a block share — a
// blockdev.Device a client BOPENs for block-class ops, which is how one
// node's file system runs over another node's device.
package registry

import (
	"sort"
	"sync"

	"betrfs/internal/blockdev"
	"betrfs/internal/vfs"
)

// Registry is a named-share table. It is safe for concurrent use; shares
// are added at daemon start-up and looked up on every ATTACH/BOPEN.
type Registry struct {
	mu      sync.RWMutex
	mounts  map[string]*vfs.Mount
	devices map[string]blockdev.Device
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		mounts:  make(map[string]*vfs.Mount),
		devices: make(map[string]blockdev.Device),
	}
}

// AddMount exports mount under name. A name is unique across both share
// kinds; re-registering it panics (shares are wired once at start-up, so
// a collision is a configuration bug, not a runtime condition).
func (r *Registry) AddMount(name string, mount *vfs.Mount) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFresh(name)
	r.mounts[name] = mount
}

// AddDevice exports dev under name as a block share.
func (r *Registry) AddDevice(name string, dev blockdev.Device) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFresh(name)
	r.devices[name] = dev
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
	return r.mounts[name]
}

// Device returns the block share name, or nil if no such block share.
func (r *Registry) Device(name string) blockdev.Device {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.devices[name]
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
	for name, dev := range r.devices {
		out = append(out, Share{Name: name, Size: dev.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
