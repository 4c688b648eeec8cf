package betree

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"betrfs/internal/sim"
)

// basementKey is the i-th key of a test basement, fixed-width so that key
// order is index order.
func basementKey(i int) []byte { return []byte(fmt.Sprintf("d/%08d", i)) }

// TestCutEntries checks the basement cut. For every gap in a basement of
// ten entries: the longer side of the gap keeps its addresses (only the
// shorter side moves, so a delete near either end moves O(1) entries
// whatever the basement's size), the survivors keep their order, and every
// slot of the backing array the cut vacated is the zero entry, so no
// deleted key or image borrow stays reachable.
func TestCutEntries(t *testing.T) {
	const n = 10
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi <= n; hi++ {
			orig := make([]entry, n)
			var want []string
			for i := range orig {
				orig[i] = entry{key: basementKey(i), val: InlineValue([]byte{byte(i)})}
				if i < lo || i >= hi {
					want = append(want, string(orig[i].key))
				}
			}
			out := cutEntries(orig, lo, hi)
			var got []string
			for _, e := range out {
				got = append(got, string(e.key))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("cut [%d,%d) left %q, want %q", lo, hi, got, want)
			}
			// out aliases orig[off : off+len(out)].
			off := cap(orig) - cap(out)
			if lo < n-hi {
				// The prefix moved up; the suffix stayed where it was.
				for j := hi; j < n; j++ {
					if &out[lo+j-hi] != &orig[j] {
						t.Fatalf("cut [%d,%d): entry %d moved although the prefix is shorter", lo, hi, j)
					}
				}
			} else {
				for j := 0; j < lo; j++ {
					if &out[j] != &orig[j] {
						t.Fatalf("cut [%d,%d): entry %d moved although the suffix is no longer", lo, hi, j)
					}
				}
			}
			for i := range orig {
				if (i < off || i >= off+len(out)) && !reflect.ValueOf(orig[i]).IsZero() {
					t.Fatalf("cut [%d,%d): vacated slot %d still holds %q", lo, hi, i, orig[i].key)
				}
			}
		}
	}
}

// TestBasementMatchesModel applies a seeded random sequence of inserts,
// deletes and range deletes to one basement through applyToBasement, with
// deletes drawn near both ends as well as anywhere, and compares the
// basement with a sorted-map model after every step. The byte count must
// stay equal to what the entries add up to, and no slot past the end of
// the entries may hold anything.
func TestBasementMatchesModel(t *testing.T) {
	env := sim.NewEnv(1)
	rnd := rand.New(rand.NewSource(1))
	b := &basement{loaded: true}
	n := &node{basements: []*basement{b}}
	model := map[string]string{}
	const keySpace = 400
	var msn MSN
	// pick returns a key index near the front, near the back, or anywhere.
	pick := func() int {
		switch rnd.Intn(3) {
		case 0:
			return rnd.Intn(keySpace / 20)
		case 1:
			return keySpace - 1 - rnd.Intn(keySpace/20)
		}
		return rnd.Intn(keySpace)
	}
	for step := 0; step < 20000; step++ {
		msn++
		k := pick()
		m := &Msg{MSN: msn, Key: basementKey(k)}
		switch r := rnd.Intn(10); {
		case r < 5:
			v := fmt.Sprintf("v%d-%d", k, step)
			m.Type, m.Val = MsgInsert, InlineValue([]byte(v))
			model[string(m.Key)] = v
		case r < 9:
			m.Type = MsgDelete
			delete(model, string(m.Key))
		default:
			end := min(k+1+rnd.Intn(30), keySpace)
			m.Type, m.EndKey = MsgRangeDelete, basementKey(end)
			for i := k; i < end; i++ {
				delete(model, string(basementKey(i)))
			}
		}
		n.applyToBasement(env, 0, m, false)

		if len(b.entries) != len(model) {
			t.Fatalf("step %d: %d entries, model has %d", step, len(b.entries), len(model))
		}
		for i, e := range b.entries {
			if i > 0 && string(b.entries[i-1].key) >= string(e.key) {
				t.Fatalf("step %d: entries out of order at %d", step, i)
			}
			if v, ok := model[string(e.key)]; !ok || v != string(e.val.Bytes()) {
				t.Fatalf("step %d: entry %q=%q, model has %q (%v)", step, e.key, e.val.Bytes(), v, ok)
			}
		}
		if b.bytes != b.entryBytes() {
			t.Fatalf("step %d: basement counts %d bytes, entries hold %d", step, b.bytes, b.entryBytes())
		}
		for i, e := range b.entries[len(b.entries):cap(b.entries)] {
			if !reflect.ValueOf(e).IsZero() {
				t.Fatalf("step %d: slot %d past the end holds %q", step, len(b.entries)+i, e.key)
			}
		}
	}
}

// BenchmarkBasementDelete times one point delete through applyToBasement
// in a basement of about n entries (n to n+n/16: the basement is refilled,
// off the clock, every n/16 deletes), at the front, the back or the middle.
// Front and back deletes move O(1) entries and are flat in n; a middle
// delete moves n/2.
func BenchmarkBasementDelete(b *testing.B) {
	for _, where := range []string{"front", "back", "middle"} {
		for _, size := range []int{1000, 30000} {
			b.Run(fmt.Sprintf("%s/%dk", where, size/1000), func(b *testing.B) {
				benchmarkBasementDelete(b, where, size)
			})
		}
	}
}

func benchmarkBasementDelete(b *testing.B, where string, size int) {
	env := sim.NewEnv(1)
	batch := size / 16
	template := make([]entry, size+batch)
	bytes := 0
	for i := range template {
		template[i] = entry{key: basementKey(i), val: InlineValue(make([]byte, 40))}
		bytes += len(template[i].key) + template[i].val.Len() + entryOverhead
	}
	backing := make([]entry, len(template))
	bm := &basement{loaded: true}
	n := &node{basements: []*basement{bm}}
	var msn MSN
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			bm.entries = append(backing[:0], template...)
			bm.bytes = bytes
			b.StartTimer()
		}
		var at int
		switch where {
		case "front":
			at = 0
		case "back":
			at = len(bm.entries) - 1
		default:
			at = len(bm.entries) / 2
		}
		msn++
		n.applyToBasement(env, 0, &Msg{Type: MsgDelete, MSN: msn, Key: bm.entries[at].key}, false)
	}
}
