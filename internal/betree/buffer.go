package betree

import (
	"math/bits"
	"slices"
	"sort"

	"betrfs/internal/keys"
	"betrfs/internal/kmem"
	"betrfs/internal/sim"
)

// buffer is one interior node's per-child message buffer, indexed by key
// the way TokuDB indexes its message buffers: point messages (inserts,
// deletes, updates) in (key, MSN) order, and range deletes in a list of
// their own in MSN order. Readers find their messages by binary search;
// no query scans the point messages.
//
// Only writers change the index, and only under the lock that already
// guards the buffer: the root latch for injects, the exclusive structure
// lock for flushes, splits and PacMan (DESIGN.md §9). Readers never build
// or mutate it.
//
// The backing storage is modeled through the kernel allocator: buffers
// grow as messages arrive and cascaded flushes can balloon them past their
// eventual on-disk size (§2.3 "Small Writes and Buffer Resizing"). Under
// the legacy allocator every growth step is a vmalloc+copy; the
// cooperative interfaces (§5) make growth nearly free.
type buffer struct {
	points []*Msg // point messages, ascending (key, MSN)
	ranges []*Msg // range deletes, ascending MSN
	bytes  int
	kbuf   *kmem.Buf
}

func (b *buffer) len() int { return len(b.points) + len(b.ranges) }

// searchCost is ⌈log₂(n+1)⌉, the comparisons a binary search over n
// sorted messages charges.
func searchCost(n int) int { return bits.Len(uint(n)) }

// chargeCompares charges n comparisons of keyLen-byte keys.
func chargeCompares(env *sim.Env, n, keyLen int) {
	for ; n > 0; n-- {
		env.Compare(keyLen)
	}
}

// msgLess is the point-message index order: key, then MSN.
func msgLess(a, c *Msg) bool {
	if x := keys.Compare(a.Key, c.Key); x != 0 {
		return x < 0
	}
	return a.MSN < c.MSN
}

// seek returns the index of the first point message with a key at or
// above key. Host-side; callers charge the search.
func (b *buffer) seek(key []byte) int {
	return sort.Search(len(b.points), func(i int) bool { return keys.Compare(b.points[i].Key, key) >= 0 })
}

// seekAfter returns the index of the first point message after (key,
// after): a larger key, or key itself at an MSN above after. Host-side.
func (b *buffer) seekAfter(key []byte, after MSN) int {
	return sort.Search(len(b.points), func(i int) bool {
		m := b.points[i]
		x := keys.Compare(m.Key, key)
		return x > 0 || x == 0 && m.MSN > after
	})
}

// insert places m at its index position, uncharged.
func (b *buffer) insert(m *Msg) {
	if m.Type == MsgRangeDelete {
		i := sort.Search(len(b.ranges), func(i int) bool { return b.ranges[i].MSN > m.MSN })
		b.ranges = slices.Insert(b.ranges, i, m)
	} else {
		i := sort.Search(len(b.points), func(i int) bool { return msgLess(m, b.points[i]) })
		b.points = slices.Insert(b.points, i, m)
	}
	b.bytes += m.memBytes()
}

// add inserts one message with its costs: for a point message the index
// search, ⌈log₂(n+1)⌉ comparisons (a range delete joins the tail of its
// MSN-ordered list with none), and the allocator work of growing the
// backing buffer.
func (b *buffer) add(env *sim.Env, alloc *kmem.Allocator, m *Msg) {
	if m.Type != MsgRangeDelete {
		chargeCompares(env, searchCost(len(b.points)), len(m.Key))
	}
	old := b.bytes
	b.insert(m)
	b.grow(alloc, old)
}

// merge adds run, point messages in (key, MSN) order, as one batch: a
// merge into the index charged min(m·⌈log₂(n+1)⌉, n+m) comparisons for m
// messages into n, plus the allocator growth of appending each message.
func (b *buffer) merge(env *sim.Env, alloc *kmem.Allocator, run []*Msg) {
	n, m := len(b.points), len(run)
	keyBytes := 0
	for _, x := range run {
		keyBytes += len(x.Key)
	}
	chargeCompares(env, min(m*searchCost(n), n+m), keyBytes/m)
	merged := make([]*Msg, 0, n+m)
	i, j := 0, 0
	for i < n && j < m {
		if msgLess(run[j], b.points[i]) {
			merged = append(merged, run[j])
			j++
		} else {
			merged = append(merged, b.points[i])
			i++
		}
	}
	merged = append(merged, b.points[i:]...)
	b.points = append(merged, run[j:]...)
	for _, x := range run {
		old := b.bytes
		b.bytes += x.memBytes()
		b.grow(alloc, old)
	}
}

// grow charges the allocator for the backing buffer growing from old
// bytes to b.bytes.
func (b *buffer) grow(alloc *kmem.Allocator, old int) {
	if b.kbuf == nil {
		b.kbuf = alloc.Alloc(max(b.bytes, 4096))
	} else if b.bytes > b.kbuf.Usable {
		b.kbuf = alloc.GrowDoubling(b.kbuf, b.bytes, old)
	}
}

// appendDecoded appends m, read from a node image, to the end of its index
// list and reports whether the list stays in order. Images store each
// buffer in index order, so decoding builds the index in one uncharged
// pass, and an out-of-order image is corrupt.
func (b *buffer) appendDecoded(m *Msg) bool {
	if m.Type == MsgRangeDelete {
		if n := len(b.ranges); n > 0 && m.MSN < b.ranges[n-1].MSN {
			return false
		}
		b.ranges = append(b.ranges, m)
	} else {
		if n := len(b.points); n > 0 && msgLess(m, b.points[n-1]) {
			return false
		}
		b.points = append(b.points, m)
	}
	b.bytes += m.memBytes()
	return true
}

// restore puts back msgs, which takeAll previously removed, in index order
// among anything added since. It is uncharged: it runs while an
// ioerr.Abort panic unwinds the flush path, and charging the allocator
// there could itself abort (a panic during a panic crashes the process).
// The allocator therefore under-counts the restored bytes until the next
// charged add regrows the buffer.
func (b *buffer) restore(msgs []*Msg) {
	for _, m := range msgs {
		b.insert(m)
	}
}

// takeAll removes and returns every message, point messages in (key, MSN)
// order and then range deletes in MSN order, releasing the backing buffer
// through the allocator.
func (b *buffer) takeAll(alloc *kmem.Allocator) []*Msg {
	out := append(b.points, b.ranges...)
	b.points, b.ranges = nil, nil
	b.bytes = 0
	if b.kbuf != nil {
		alloc.FreeSized(b.kbuf)
		b.kbuf = nil
	}
	return out
}

// drop removes every message eaten reports, releasing page references,
// and returns how many it removed.
func (b *buffer) drop(eaten func(*Msg) bool) int {
	before := b.len()
	del := func(m *Msg) bool {
		if !eaten(m) {
			return false
		}
		b.bytes -= m.memBytes()
		m.Val.Release()
		return true
	}
	b.points = slices.DeleteFunc(b.points, del)
	b.ranges = slices.DeleteFunc(b.ranges, del)
	return before - b.len()
}

// collect appends to out the messages relevant to key with MSN above
// after: its point messages and the range deletes covering it. It charges
// the binary search to the key's first such message, ⌈log₂(n+1)⌉
// comparisons over n point messages, one per message it yields and one
// for the message that ends the run, and two per range delete: checking a
// range message is costlier than a point message (§4).
func (b *buffer) collect(env *sim.Env, key []byte, after MSN, out []*Msg) []*Msg {
	c := searchCost(len(b.points))
	for i := b.seekAfter(key, after); i < len(b.points); i++ {
		c++
		m := b.points[i]
		if keys.Compare(m.Key, key) != 0 {
			break
		}
		out = append(out, m)
	}
	chargeCompares(env, c+2*len(b.ranges), len(key))
	for _, m := range b.ranges {
		if m.MSN > after && m.covers(key) {
			out = append(out, m)
		}
	}
	return out
}

// span returns the index range [i, j) of the point messages with keys in
// [lo, hi), charging the search for lo, one comparison per message in the
// span and one for the message that ends it.
func (b *buffer) span(env *sim.Env, lo, hi []byte) (i, j int) {
	chargeCompares(env, searchCost(len(b.points)), len(lo))
	i = b.seek(lo)
	j = i
	for ; j < len(b.points); j++ {
		env.Compare(len(hi))
		if keys.Compare(b.points[j].Key, hi) >= 0 {
			break
		}
	}
	return i, j
}

// collectRange appends the messages overlapping [lo, hi) with MSN above
// after. It charges span's search and walk, and two comparisons per range
// delete.
func (b *buffer) collectRange(env *sim.Env, lo, hi []byte, after MSN, out []*Msg) []*Msg {
	i, j := b.span(env, lo, hi)
	for _, m := range b.points[i:j] {
		if m.MSN > after {
			out = append(out, m)
		}
	}
	for _, m := range b.ranges {
		env.Compare(len(lo))
		env.Compare(len(hi))
		if m.MSN > after && m.overlapsRange(lo, hi) {
			out = append(out, m)
		}
	}
	return out
}

// removeOverlapping removes and returns all messages overlapping [lo, hi),
// point messages first. Range deletes that extend beyond [lo, hi) are
// returned but stay: they still affect other leaves. Used by the legacy
// apply-on-query flush path, which pushes pending messages into a dirty
// leaf; charged like collectRange.
func (b *buffer) removeOverlapping(env *sim.Env, lo, hi []byte) []*Msg {
	i, j := b.span(env, lo, hi)
	out := slices.Clone(b.points[i:j])
	for _, m := range out {
		b.bytes -= m.memBytes()
	}
	b.points = slices.Delete(b.points, i, j)
	b.ranges = slices.DeleteFunc(b.ranges, func(m *Msg) bool {
		env.Compare(len(lo))
		env.Compare(len(hi))
		if !m.overlapsRange(lo, hi) {
			return false
		}
		out = append(out, m)
		if keys.Compare(lo, m.Key) <= 0 && keys.Compare(m.EndKey, hi) <= 0 {
			b.bytes -= m.memBytes()
			return true
		}
		return false
	})
	return out
}
