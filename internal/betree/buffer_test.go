package betree

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"time"

	"betrfs/internal/keys"
	"betrfs/internal/kmem"
	"betrfs/internal/sim"
)

// checkBufferIndex fails unless b's index is in order — point messages by
// (key, MSN), range deletes by MSN, each in its own list — and b.bytes
// matches the messages it holds.
func checkBufferIndex(t testing.TB, b *buffer) {
	t.Helper()
	total := 0
	for i, m := range b.points {
		if m.Type == MsgRangeDelete {
			t.Fatalf("range delete at MSN %d among the point messages", m.MSN)
		}
		if i > 0 && msgLess(m, b.points[i-1]) {
			t.Fatalf("point messages out of order at %d: (%q, %d) after (%q, %d)",
				i, m.Key, m.MSN, b.points[i-1].Key, b.points[i-1].MSN)
		}
		total += m.memBytes()
	}
	for i, m := range b.ranges {
		if m.Type != MsgRangeDelete {
			t.Fatalf("%v message at MSN %d among the range deletes", m.Type, m.MSN)
		}
		if i > 0 && m.MSN < b.ranges[i-1].MSN {
			t.Fatalf("range deletes out of MSN order at %d", i)
		}
		total += m.memBytes()
	}
	if total != b.bytes {
		t.Fatalf("buffer counts %d bytes, holds %d", b.bytes, total)
	}
}

// byMSN returns msgs sorted by MSN, which is unique per message.
func byMSN(msgs []*Msg) []*Msg {
	out := slices.Clone(msgs)
	slices.SortFunc(out, func(a, c *Msg) int { return int(a.MSN) - int(c.MSN) })
	return out
}

func sameMsgs(t *testing.T, what string, got, want []*Msg) {
	t.Helper()
	g, w := byMSN(got), byMSN(want)
	if !slices.Equal(g, w) {
		t.Fatalf("%s: got %d messages %v, the linear reference %d %v", what, len(g), msns(g), len(w), msns(w))
	}
}

func msns(msgs []*Msg) []MSN {
	out := make([]MSN, len(msgs))
	for i, m := range msgs {
		out[i] = m.MSN
	}
	return out
}

// TestBufferIndexMatchesLinearReference drives random buffers — duplicate
// keys at several MSNs, range deletes, MSNs arriving out of order — through
// interleaved adds, batch merges, takeAll/restore, drops and removals, and
// requires collect, collectRange and removeOverlapping to return exactly
// what a linear scan of the same messages returns.
func TestBufferIndexMatchesLinearReference(t *testing.T) {
	env := sim.NewEnv(1)
	alloc := kmem.New(env, true)
	rnd := sim.NewRand(19)
	const pool = 24
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }
	// Query bounds also fall between and beyond the message keys.
	probe := func() []byte {
		i := rnd.Intn(pool + 2)
		if rnd.Intn(3) == 0 {
			return append(key(i), 'x')
		}
		return key(i)
	}
	usedMSN := map[MSN]bool{}
	newMSN := func() MSN {
		for {
			m := MSN(rnd.Intn(1 << 20))
			if !usedMSN[m] {
				usedMSN[m] = true
				return m
			}
		}
	}
	newMsg := func() *Msg {
		a := rnd.Intn(pool)
		if rnd.Intn(7) == 0 {
			return &Msg{Type: MsgRangeDelete, MSN: newMSN(), Key: key(a), EndKey: key(a + 1 + rnd.Intn(6))}
		}
		typ := []MsgType{MsgInsert, MsgDelete, MsgUpdate}[rnd.Intn(3)]
		return &Msg{Type: typ, MSN: newMSN(), Key: key(a), Val: InlineValue(make([]byte, rnd.Intn(40)))}
	}

	var b buffer
	var ref []*Msg // the buffer's messages, for the linear reference
	for step := 0; step < 6000; step++ {
		switch op := rnd.Intn(20); {
		case op < 10:
			m := newMsg()
			b.add(env, alloc, m)
			ref = append(ref, m)
		case op < 13:
			var run []*Msg
			for i := rnd.Intn(8); i >= 0; i-- {
				if m := newMsg(); m.Type != MsgRangeDelete {
					run = append(run, m)
				}
			}
			if len(run) == 0 {
				continue
			}
			slices.SortFunc(run, func(a, c *Msg) int {
				if msgLess(a, c) {
					return -1
				}
				return 1
			})
			b.merge(env, alloc, run)
			ref = append(ref, run...)
		case op == 13:
			got := b.takeAll(alloc)
			sameMsgs(t, "takeAll", got, ref)
			for i, m := range got {
				if i > 0 && m.Type != MsgRangeDelete && got[i-1].Type == MsgRangeDelete {
					t.Fatal("takeAll returned a point message after a range delete")
				}
			}
			// A flush abort puts back an arbitrary tail, in any order.
			tail := got[rnd.Intn(len(got)+1):]
			for i := len(tail) - 1; i > 0; i-- {
				j := rnd.Intn(i + 1)
				tail[i], tail[j] = tail[j], tail[i]
			}
			b.restore(tail)
			ref = slices.Clone(tail)
		case op == 14:
			mod := MSN(2 + rnd.Intn(3))
			eaten := func(m *Msg) bool { return m.MSN%mod == 0 }
			want := 0
			for _, m := range ref {
				if eaten(m) {
					want++
				}
			}
			if got := b.drop(eaten); got != want {
				t.Fatalf("drop removed %d messages, the reference %d", got, want)
			}
			ref = slices.DeleteFunc(ref, eaten)
		case op == 15:
			lo, hi := probe(), probe()
			if keys.Compare(lo, hi) >= 0 {
				continue
			}
			var want, kept []*Msg
			for _, m := range ref {
				if !m.overlapsRange(lo, hi) {
					kept = append(kept, m)
					continue
				}
				want = append(want, m)
				if m.Type == MsgRangeDelete && !(keys.Compare(lo, m.Key) <= 0 && keys.Compare(m.EndKey, hi) <= 0) {
					kept = append(kept, m)
				}
			}
			sameMsgs(t, fmt.Sprintf("removeOverlapping [%s, %s)", lo, hi), b.removeOverlapping(env, lo, hi), want)
			ref = kept
		default:
			// Queries only.
		}
		checkBufferIndex(t, &b)
		sameMsgs(t, "contents", append(slices.Clone(b.points), b.ranges...), ref)

		after := MSN(rnd.Intn(1 << 20))
		if rnd.Intn(4) == 0 {
			after = 0
		}
		q := probe()
		var want []*Msg
		for _, m := range ref {
			if m.MSN > after && (m.covers(q) || m.Type != MsgRangeDelete && keys.Compare(m.Key, q) == 0) {
				want = append(want, m)
			}
		}
		sameMsgs(t, fmt.Sprintf("collect(%s, %d)", q, after), b.collect(env, q, after, nil), want)

		lo, hi := probe(), probe()
		if keys.Compare(lo, hi) < 0 {
			want = want[:0]
			for _, m := range ref {
				if m.MSN > after && m.overlapsRange(lo, hi) {
					want = append(want, m)
				}
			}
			sameMsgs(t, fmt.Sprintf("collectRange(%s, %s, %d)", lo, hi, after), b.collectRange(env, lo, hi, after, nil), want)
		}
	}
}

// compareCount converts a comparison charge into a count of comparisons of
// keyLen-byte keys.
func compareCount(env *sim.Env, charged time.Duration, keyLen int) int {
	per := env.Costs.CompareBase + time.Duration(int64(keyLen)*env.Costs.ComparePsPerByte/1000)
	return int(charged / per)
}

// TestCollectChargesLogarithmic: a point lookup in a buffer of n point
// messages charges at most ⌈log₂(n+1)⌉ + k + 2 comparisons for k matches,
// not one per buffered message.
func TestCollectChargesLogarithmic(t *testing.T) {
	env := sim.NewEnv(1)
	var b buffer
	const n = 30000
	for i := 0; i < n; i++ {
		// Three messages per key, at increasing MSNs.
		b.insert(&Msg{Type: MsgInsert, MSN: MSN(i + 1), Key: k(i / 3), Val: InlineValue([]byte{1})})
	}
	key := k(n / 6)
	first := MSN(n/2 + 1) // MSN of key's first message
	for _, tc := range []struct {
		after MSN
		want  int
	}{{0, 3}, {first, 2}, {first + 2, 0}} {
		before := env.Stats.Compare
		got := b.collect(env, key, tc.after, nil)
		compares := compareCount(env, env.Stats.Compare-before, len(key))
		if len(got) != tc.want {
			t.Fatalf("after %d: collected %d messages, want %d", tc.after, len(got), tc.want)
		}
		if bound := bits.Len(n) + len(got) + 2; compares > bound {
			t.Fatalf("after %d: lookup in %d buffered messages charged %d comparisons, want at most %d",
				tc.after, n, compares, bound)
		}
	}
}

// TestDecodeRejectsUnsortedBuffer: an interior image whose checksums are
// valid but whose buffer is out of index order, or holds an unknown message
// type, decodes to ErrChecksum — not to a misordered index or a panic.
func TestDecodeRejectsUnsortedBuffer(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	build := func() *node {
		n := &node{id: 9, height: 1, children: []nodeID{10, 11}, pivots: [][]byte{[]byte("m")}, bufs: make([]buffer, 2)}
		n.bufs[0].insert(&Msg{Type: MsgInsert, MSN: 5, Key: []byte("a"), Val: InlineValue([]byte("x"))})
		n.bufs[0].insert(&Msg{Type: MsgInsert, MSN: 3, Key: []byte("b"), Val: InlineValue([]byte("y"))})
		n.bufs[0].insert(&Msg{Type: MsgDelete, MSN: 7, Key: []byte("b")})
		n.bufs[1].insert(&Msg{Type: MsgRangeDelete, MSN: 4, Key: []byte("m"), EndKey: []byte("p")})
		n.bufs[1].insert(&Msg{Type: MsgRangeDelete, MSN: 6, Key: []byte("n"), EndKey: []byte("o")})
		return n
	}
	if _, err := deserializeNode(env, &cfg, serializeNode(env, &cfg, build())); err != nil {
		t.Fatalf("well-ordered image: %v", err)
	}
	for name, craft := range map[string]func(n *node){
		"keys out of order":              func(n *node) { p := n.bufs[0].points; p[0], p[1] = p[1], p[0] },
		"one key's MSNs out of order":    func(n *node) { p := n.bufs[0].points; p[1], p[2] = p[2], p[1] },
		"range deletes out of MSN order": func(n *node) { r := n.bufs[1].ranges; r[0], r[1] = r[1], r[0] },
		"unknown message type":           func(n *node) { n.bufs[0].points[2].Type = MsgRangeDelete + 1 },
	} {
		n := build()
		craft(n)
		_, err := deserializeNode(env, &cfg, serializeNode(env, &cfg, n))
		if !errors.Is(err, ErrChecksum) {
			t.Errorf("%s: decode returned %v, want ErrChecksum", name, err)
		}
	}
}

// fullRootStore returns a store whose data tree has an interior root
// holding pending buffered point messages, all in the child buffer of the
// probe key k(5) but none for it, checkpointed and dropped from the cache.
func fullRootStore(tb testing.TB, pending int) (*sim.Env, *Store, *Tree) {
	env, s := testStore(tb, func(c *Config) {
		c.NodeSize = 2 << 20
		c.CacheBytes = 64 << 20
	})
	tr := s.Data()
	// Fill the root leaf until it splits; the new root's buffers start empty.
	for i := 0; ; i++ {
		if err := tr.Put(k(i), v(i, 1000), LogNone); err != nil {
			tb.Fatal(err)
		}
		if root, _ := s.cache.lookup(tr, tr.rootID, false); !root.isLeaf() {
			break
		}
	}
	for i := 0; i < pending; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("%s-%06d", k(5), i)), []byte("pending!"), LogNone); err != nil {
			tb.Fatal(err)
		}
	}
	root, _ := s.cache.lookup(tr, tr.rootID, false)
	if root.isLeaf() || root.bufs[0].len() != pending {
		tb.Fatalf("root holds %d of %d pending messages in the probe's buffer", root.bufs[0].len(), pending)
	}
	if err := s.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	s.DropCleanCaches()
	return env, s, tr
}

// coldGet times one Get of the probe key on both clocks' simulated side:
// total time and the part spent comparing keys.
func coldGet(tb testing.TB, env *sim.Env, tr *Tree) (simT, cmpT time.Duration) {
	start, cmp := env.Now(), env.Stats.Compare
	if _, ok, err := tr.Get(k(5)); err != nil || !ok {
		tb.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	return env.Now() - start, env.Stats.Compare - cmp
}

// TestPointQueryFlatInBufferedMessages: a cold point query's comparison
// time barely moves when its root buffer holds 16× more pending messages,
// where scanning the buffer grows it about 16×.
func TestPointQueryFlatInBufferedMessages(t *testing.T) {
	var cmp [2]time.Duration
	for i, pending := range []int{1000, 16000} {
		env, _, tr := fullRootStore(t, pending)
		_, cmp[i] = coldGet(t, env, tr)
		t.Logf("%5d pending messages: cold Get compares for %v", pending, cmp[i])
	}
	if cmp[1] >= 2*cmp[0] {
		t.Fatalf("cold Get comparison time %v under 1 000 pending messages, %v under 16 000: want under 2× growth",
			cmp[0], cmp[1])
	}
}

// BenchmarkGetFullBuffers times cold point queries under a root holding
// 16 000 pending messages, reporting simulated and comparison seconds per
// query.
func BenchmarkGetFullBuffers(b *testing.B) {
	env, s, tr := fullRootStore(b, 16000)
	var simTotal, cmpTotal time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DropCleanCaches()
		st, ct := coldGet(b, env, tr)
		simTotal += st
		cmpTotal += ct
	}
	b.ReportMetric(simTotal.Seconds()/float64(b.N), "sim-s/op")
	b.ReportMetric(cmpTotal.Seconds()/float64(b.N), "compare-s/op")
}
