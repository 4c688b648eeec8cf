package vfs

// FramesOut reports how many page frames the mount has handed out and not
// had back: neither returned to its free list nor given up to the garbage
// collector.
func (m *Mount) FramesOut() int64 {
	m.frames.mu.Lock()
	defer m.frames.mu.Unlock()
	return m.frames.out
}
