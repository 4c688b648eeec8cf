//go:build !unix || race

package blockdev

// newSlab allocates n zeroed bytes on the Go heap. Platforms without
// syscall.Mmap (Windows, wasm) take this path, and so do race-enabled
// builds, because the race detector does not see mapped memory.
func newSlab(n int) []byte { return make([]byte, n) }
