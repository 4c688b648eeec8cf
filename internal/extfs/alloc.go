package extfs

// Block allocation: goal-directed first fit over a bitmap, with
// allocation-group spreading for directories. Contiguous allocation is
// what turns sequential file writes into sequential device writes, and
// fragmented allocation is what ages traversal workloads.

func (fs *FS) bitGet(b int64) bool { return fs.bitmap[b/64]&(1<<(uint(b)%64)) != 0 }
func (fs *FS) bitSet(b int64)      { fs.bitmap[b/64] |= 1 << (uint(b) % 64) }
func (fs *FS) bitClear(b int64)    { fs.bitmap[b/64] &^= 1 << (uint(b) % 64) }

// allocRun allocates up to want contiguous blocks starting the search at
// goal, returning the first block and the run length (>= 1). The search
// wraps around the data area, skipping fully allocated regions a word at
// a time.
func (fs *FS) allocRun(goal int64, want int64) (int64, int64) {
	total := fs.lay.dataBlocks
	if goal < 0 || goal >= total {
		goal = 0
	}
	b := goal
	wrapped := false
	for {
		nb := skipAllocatedWords(fs.bitmap, b, total)
		if nb >= total {
			if wrapped {
				fs.noSpace()
				return 0, 0
			}
			wrapped = true
			b = 0
			continue
		}
		if wrapped && nb >= goal {
			fs.noSpace()
			return 0, 0
		}
		b = nb
		// Extend the run as far as possible.
		run := int64(1)
		for run < want && b+run < total && !fs.bitGet(b+run) {
			run++
		}
		for i := int64(0); i < run; i++ {
			fs.bitSet(b + i)
		}
		return b, run
	}
}

// skipAllocatedWords advances b past fully allocated regions a word (64
// blocks) at a time, returning the next free candidate at or after b.
func skipAllocatedWords(bitmap []uint64, b, total int64) int64 {
	for b < total {
		if b%64 == 0 {
			if bitmap[b/64] == ^uint64(0) {
				b += 64
				continue
			}
		}
		if bitmap[b/64]&(1<<(uint(b)%64)) == 0 {
			return b
		}
		b++
	}
	return total
}

// groupGoal returns the allocation goal for an inode: its own last
// allocation if any, else its group's rotor.
func (fs *FS) groupGoal(x *xinode) int64 {
	if x.lastAlloc > 0 {
		return x.lastAlloc
	}
	return fs.groupPtr[x.group%len(fs.groupPtr)]
}

// allocBlocks appends count logical blocks starting at logical to x's
// extent map, allocating physical runs.
func (fs *FS) allocBlocks(x *xinode, logical, count int64) {
	for count > 0 {
		phys, run := fs.allocRun(fs.groupGoal(x), count)
		x.lastAlloc = phys + run
		fs.groupPtr[x.group%len(fs.groupPtr)] = phys + run
		fs.appendExtent(x, extent{logical: logical, phys: phys, count: run})
		logical += run
		count -= run
	}
	fs.markInodeDirty(x)
}

// appendExtent adds e, merging with the last extent when contiguous.
func (fs *FS) appendExtent(x *xinode, e extent) {
	if n := len(x.extents); n > 0 {
		last := &x.extents[n-1]
		if last.logical+last.count == e.logical && last.phys+last.count == e.phys {
			last.count += e.count
			return
		}
	}
	x.extents = append(x.extents, e)
}

// physFor returns the physical block for logical block blk, or -1 when it
// is a hole.
func (x *xinode) physFor(blk int64) int64 {
	for i := range x.extents {
		e := &x.extents[i]
		if blk >= e.logical && blk < e.logical+e.count {
			return e.phys + (blk - e.logical)
		}
	}
	return -1
}

// ensureBlock returns the physical block for blk, allocating it if absent.
func (fs *FS) ensureBlock(x *xinode, blk int64) int64 {
	if p := x.physFor(blk); p >= 0 {
		return p
	}
	fs.allocBlocks(x, blk, 1)
	return x.physFor(blk)
}

// freeBlocksFrom releases all blocks with logical index >= fromBlk.
// Frees are deferred to the next journal commit (JBD semantics): reusing
// a freed block before the record that freed it is durable would let a
// crash resurrect the old file with another file's data in it.
func (fs *FS) freeBlocksFrom(x *xinode, fromBlk int64) {
	kept := x.extents[:0]
	for _, e := range x.extents {
		switch {
		case e.logical >= fromBlk:
			for i := int64(0); i < e.count; i++ {
				fs.deferFree(e.phys + i)
			}
		case e.logical+e.count > fromBlk:
			keep := fromBlk - e.logical
			for i := keep; i < e.count; i++ {
				fs.deferFree(e.phys + i)
			}
			e.count = keep
			kept = append(kept, e)
		default:
			kept = append(kept, e)
		}
	}
	x.extents = kept
	fs.markInodeDirty(x)
}

// deferFree queues block b for release at the next journal commit.
func (fs *FS) deferFree(b int64) {
	fs.pendingFree = append(fs.pendingFree, b)
}

// applyPendingFrees clears the bitmap bits of blocks freed since the
// last commit. Call only after the journal records that freed them have
// been flushed.
func (fs *FS) applyPendingFrees() {
	for _, b := range fs.pendingFree {
		fs.bitClear(b)
	}
	fs.pendingFree = fs.pendingFree[:0]
}

// freeAll releases every block of x.
func (fs *FS) freeAll(x *xinode) {
	fs.freeBlocksFrom(x, 0)
}
