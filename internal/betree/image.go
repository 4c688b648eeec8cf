package betree

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// image is one pooled node-image buffer. Serialized writes use it until the
// device has the bytes. Reads lend it out: the values decoded from it
// borrow their bytes instead of copying them (DESIGN.md §5.6), and refs
// counts those borrowers. The buffer goes back to imagePools when the last
// borrower lets go, as a page frame does when its last holder does.
type image struct {
	b    []byte
	refs atomic.Int32
	// out is the owning store's count of images with borrowers, set by
	// Store.keep and decremented when refs reaches zero.
	out *atomic.Int64
	// pooled is set while the image sits in imagePools; a second put of
	// the same image panics.
	pooled atomic.Bool
}

// imagePools recycles node images for both directions: reads, which come
// back when their last borrower releases them (or right after decoding
// when nothing borrowed), and serialized writes, which the device copies
// at submission and which come back once the write has succeeded. As in
// §5's cache of common sizes, images come in power-of-two classes: class c
// holds images of capacity 1<<c, so a request never meets a pooled image
// too small for it. It is one free list for the process, which a garbage
// collection does not empty, as it would a sync.Pool, and which a store
// created after another takes over. A new image is made only when its
// class has none listed, so the list never holds more images of a class
// than the process once had out at the same time, and it needs no budget
// of its own (DESIGN.md §5.6 gives the measurements). Images are released
// on whatever goroutine drops them, so the list has a lock.
var imagePools struct {
	mu   sync.Mutex
	free [64][]*image
}

// getImage returns an image of n bytes from n's size class. Its contents
// are stale: callers fill every byte.
func getImage(n int64) *image {
	c := bits.Len64(uint64(n - 1))
	imagePools.mu.Lock()
	if l := imagePools.free[c]; len(l) > 0 {
		im := l[len(l)-1]
		l[len(l)-1] = nil
		imagePools.free[c] = l[:len(l)-1]
		imagePools.mu.Unlock()
		im.pooled.Store(false)
		im.b = im.b[:n]
		return im
	}
	imagePools.mu.Unlock()
	return &image{b: make([]byte, n, 1<<c)}
}

// putImage returns an image from getImage to its size class. Whatever
// borrows a failed decode counted are void: that node never escaped.
func putImage(im *image) {
	if im.pooled.Swap(true) {
		panic("betree: node image returned to the pool twice")
	}
	im.refs.Store(0)
	im.out = nil
	c := bits.Len64(uint64(cap(im.b))) - 1
	imagePools.mu.Lock()
	imagePools.free[c] = append(imagePools.free[c], im)
	imagePools.mu.Unlock()
}

// Release drops one borrow; the last one returns the image to the pool.
// Releasing more borrows than were lent panics: some value was released
// twice, and its bytes may already belong to another read.
func (im *image) Release() {
	switch r := im.refs.Add(-1); {
	case r == 0:
		if im.out != nil {
			im.out.Add(-1)
		}
		putImage(im)
	case r < 0:
		panic("betree: node image released more often than it was borrowed")
	}
}

// keep settles a freshly decoded image once its node is kept: with no
// borrowers it goes straight back to the pool, otherwise it counts as
// outstanding until its last borrower releases it. The decoded node is not
// yet published, so no borrow can be released concurrently.
func (s *Store) keep(im *image) {
	if im.refs.Load() == 0 {
		putImage(im)
		return
	}
	im.out = &s.imagesOut
	s.imagesOut.Add(1)
}

// ImagesOut reports how many node images decoded values still borrow.
// Once every cached node is dropped (DropCleanCaches) it is zero.
func (s *Store) ImagesOut() int64 { return s.imagesOut.Load() }
