package betree

import (
	"sort"
	"sync/atomic"

	"betrfs/internal/ioerr"
	"betrfs/internal/keys"
)

// Scan iterates all live key-value pairs in [lo, hi) in key order, calling
// fn for each; fn returning false stops the scan. hi == nil means
// unbounded. A corrupted node or basement encountered mid-scan stops the
// iteration and surfaces an error wrapping ErrChecksum; pairs already
// yielded remain valid.
//
// Scans materialize each basement they traverse: pending messages from the
// root-to-leaf path are applied to the in-memory basement (bumping its
// maxApplied watermark) exactly like apply-on-query, which is how BetrFS
// serves range queries from a consistent view while leaving the on-disk
// tree untouched (§2.1, §4). With read-ahead enabled, the next leaf is
// prefetched while the current one is consumed (§3.2).
//
// Concurrency: each leaf is visited under the shared structure lock with
// the root-to-leaf path latched (interior nodes shared, the leaf
// exclusive, since materialization mutates basements); the lock is
// released between leaves so injects and flushes can interleave with a
// long scan. fn runs with those latches held and therefore must not
// re-enter the tree (Get/Put/Scan on the same store would self-deadlock).
func (t *Tree) Scan(lo, hi []byte, fn func(k, v []byte) bool) (err error) {
	// The guard catches aborts raised below scanLeaf — e.g. a cache
	// eviction whose inline write-back hits a device failure.
	defer ioerr.Guard(&err)
	atomic.AddInt64(&t.stats.Scans, 1)
	t.store.m.queryScan.Inc()
	cursor := lo
	if cursor == nil {
		cursor = []byte{}
	}
	for {
		if hi != nil && keys.Compare(cursor, hi) >= 0 {
			return nil
		}
		leafHi, more, err := t.scanLeaf(cursor, hi, fn)
		if err != nil {
			return err
		}
		if !more || leafHi == nil {
			return nil
		}
		cursor = leafHi
	}
}

// scanLeaf processes the leaf containing key cursor, returning the leaf's
// upper bound (nil when it is the rightmost leaf) and whether iteration
// should continue.
func (t *Tree) scanLeaf(cursor, hi []byte, fn func(k, v []byte) bool) ([]byte, bool, error) {
	s := t.store
	s.lockShared()
	defer s.unlockShared()
	var path []pathEl
	var llo, lhi []byte
	n, err := t.fetch(t.rootID, nil)
	if err != nil {
		return nil, false, err
	}
	if n.isLeaf() {
		s.latchExcl(n)
	} else {
		s.latchShared(n)
	}
	defer func() {
		for _, pe := range path {
			s.unlatchShared(pe.n)
			t.unpin(pe.n)
		}
		if n.isLeaf() {
			s.unlatchExcl(n)
		} else {
			s.unlatchShared(n)
		}
		t.unpin(n)
	}()
	for !n.isLeaf() {
		ci := n.childFor(s.env, cursor)
		child, err := t.fetch(n.children[ci], nil)
		if err != nil {
			return nil, false, err
		}
		if child.isLeaf() {
			s.latchExcl(child)
		} else {
			s.latchShared(child)
		}
		llo, lhi = n.childRange(ci, llo, lhi)
		path = append(path, pathEl{n, ci})
		n = child
	}
	// Prefetch the next leaf while this one is consumed.
	if s.cfg.ReadAhead {
		for i := len(path) - 1; i >= 0; i-- {
			pe := path[i]
			if pe.ci+1 < len(pe.n.children) {
				s.prefetch(t, pe.n.children[pe.ci+1])
				break
			}
		}
	}

	// Materialize the basements overlapping [cursor, hi) against the
	// path's pending messages; basements outside the requested range are
	// left untouched (and unread, for partially loaded leaves).
	for bi := range n.basements {
		b := n.basements[bi]
		blo, bhi := basementRange(n, bi, llo, lhi)
		if keys.Compare(bhi, cursor) <= 0 {
			continue // entirely below the scan start
		}
		if hi != nil && keys.Compare(blo, hi) >= 0 {
			break // entirely above the scan end
		}
		if err := t.ensureBasement(n, bi); err != nil {
			return nil, false, err
		}
		var msgs []*Msg
		for _, pe := range path {
			msgs = pe.n.bufs[pe.ci].collectRange(s.env, blo, bhi, b.maxApplied, msgs)
		}
		if len(msgs) == 0 {
			continue
		}
		sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].MSN < msgs[j].MSN })
		for _, m := range msgs {
			// Messages stay live in ancestor buffers, so apply clones.
			n.applyToBasement(s.env, bi, cloneForSharedApply(s.env, clipToBasement(m, blo, bhi)), false)
		}
		s.cache.resize(t, n)
	}

	// Yield entries within [cursor, hi).
	for bi, b := range n.basements {
		blo, bhi := basementRange(n, bi, llo, lhi)
		if keys.Compare(bhi, cursor) <= 0 {
			continue
		}
		if hi != nil && keys.Compare(blo, hi) >= 0 {
			return lhi, false, nil
		}
		// Seek, don't walk: in the basement holding the cursor, position
		// by the charged binary search instead of stepping over the prefix.
		start := 0
		if keys.Compare(blo, cursor) < 0 {
			start, _ = b.find(s.env, cursor)
		}
		for i := start; i < len(b.entries); i++ {
			e := &b.entries[i]
			s.env.Compare(len(cursor))
			if keys.Compare(e.key, cursor) < 0 {
				continue
			}
			if hi != nil && keys.Compare(e.key, hi) >= 0 {
				return lhi, false, nil
			}
			if !fn(e.key, e.val.Bytes()) {
				return lhi, false, nil
			}
		}
	}
	return lhi, true, nil
}

// clipToBasement narrows a range delete to the basement's bounds so that
// the per-basement maxApplied guard reflects exactly what was applied. The
// original message object is never mutated (it is shared with ancestors).
func clipToBasement(m *Msg, blo, bhi []byte) *Msg {
	if m.Type != MsgRangeDelete {
		return m
	}
	c := *m
	if keys.Compare(c.Key, blo) < 0 {
		c.Key = blo
	}
	if keys.Compare(bhi, c.EndKey) < 0 {
		c.EndKey = bhi
	}
	return &c
}

// Count returns the number of live pairs in [lo, hi); mainly for tests
// and tools. Corruption mid-scan truncates the count (use Scan directly
// for the error).
func (t *Tree) Count(lo, hi []byte) int {
	n := 0
	_ = t.Scan(lo, hi, func(_, _ []byte) bool { n++; return true })
	return n
}
