//go:build unix && !race

package blockdev

import "syscall"

// newSlab maps n bytes of anonymous memory, which the kernel zero-fills on
// first touch. The Go collector neither scans nor counts it, so stored
// bytes do not raise the heap goal. Slabs are never unmapped: the store
// keeps every chunk on its free list.
func newSlab(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic("blockdev: mapping a chunk slab: " + err.Error())
	}
	return b
}
