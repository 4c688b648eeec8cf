package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"betrfs/internal/metrics/metricstest"
	"betrfs/internal/sim"
	"betrfs/internal/stor"
)

// memFile is a minimal in-memory stor.File for unit testing the log in
// isolation from the device and SFL layers.
type memFile struct {
	env  *sim.Env
	data []byte
}

func newMemFile(env *sim.Env, size int64) *memFile {
	return &memFile{env: env, data: make([]byte, size)}
}

func (m *memFile) ReadAt(p []byte, off int64) error  { copy(p, m.data[off:]); return nil }
func (m *memFile) WriteAt(p []byte, off int64) error { copy(m.data[off:], p); return nil }
func (m *memFile) SubmitRead(p []byte, off int64) stor.Wait {
	m.ReadAt(p, off)
	return func() error { return nil }
}
func (m *memFile) SubmitWrite(p []byte, off int64) stor.Wait {
	m.WriteAt(p, off)
	return func() error { return nil }
}
func (m *memFile) Flush() error { return nil }
func (m *memFile) Discard(off, length int64) error {
	copy(m.data[off:off+length], make([]byte, length))
	return nil
}
func (m *memFile) Capacity() int64 { return int64(len(m.data)) }

func newLog(t testing.TB, size int64) (*sim.Env, *memFile, *Log) {
	t.Helper()
	env := sim.NewEnv(1)
	f := newMemFile(env, size)
	return env, f, New(env, f, 1)
}

func TestAppendFlushRecover(t *testing.T) {
	env, f, l := newLog(t, 1<<20)
	var want []string
	for i := 0; i < 100; i++ {
		p := fmt.Sprintf("record-%d", i)
		want = append(want, p)
		if _, err := l.Append(RecordType(1), []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	l.Flush()
	recs, rerr := Recover(env, f, Hint{Offset: 0, LSN: 1, Epoch: 1})
	if rerr != nil {
		t.Fatalf("recover: %v", rerr)
	}
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if string(r.Payload) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, r.Payload, want[i])
		}
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has lsn %d", i, r.LSN)
		}
	}
}

func TestUnflushedRecordsNotRecovered(t *testing.T) {
	env, f, l := newLog(t, 1<<20)
	l.Append(1, []byte("durable"))
	l.Flush()
	l.Append(1, []byte("volatile"))
	// no flush
	recs, rerr := Recover(env, f, Hint{Offset: 0, LSN: 1, Epoch: 1})
	if rerr != nil {
		t.Fatalf("recover: %v", rerr)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "durable" {
		t.Fatalf("recovered %v", recs)
	}
}

func TestDurableLSNTracksFlush(t *testing.T) {
	_, _, l := newLog(t, 1<<20)
	lsn, _ := l.Append(1, []byte("x"))
	if l.durable != 0 {
		t.Fatal("nothing should be durable before flush")
	}
	l.Flush()
	if l.durable != lsn {
		t.Fatalf("durable=%d, want %d", l.durable, lsn)
	}
}

func TestCorruptRecordStopsRecovery(t *testing.T) {
	env, f, l := newLog(t, 1<<20)
	l.Append(1, []byte("aaaa"))
	l.Append(1, []byte("bbbb"))
	l.Append(1, []byte("cccc"))
	l.Flush()
	// Corrupt the second record's payload.
	first := recordSize(4)
	f.data[first+headerSize+1] ^= 0xff
	recs, rerr := Recover(env, f, Hint{Offset: 0, LSN: 1, Epoch: 1})
	if rerr != nil {
		t.Fatalf("recover: %v", rerr)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d records past corruption, want 1", len(recs))
	}
}

func TestWrapAround(t *testing.T) {
	env, f, l := newLog(t, 4096)
	payload := bytes.Repeat([]byte{7}, 100)
	// Fill most of the region, reclaim, and keep appending to force a wrap.
	var lastHint Hint
	total := 0
	for i := 0; i < 100; i++ {
		lsn, err := l.Append(1, payload)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		l.Flush()
		lastHint = l.Reclaim(lsn) // everything before the newest record dies
		total++
	}
	if l.head <= l.cap {
		t.Fatal("log never wrapped; test is not exercising wrap-around")
	}
	recs, rerr := Recover(env, f, lastHint)
	if rerr != nil {
		t.Fatalf("recover: %v", rerr)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d records after wrap, want 1", len(recs))
	}
	if recs[0].LSN != uint64(total) {
		t.Fatalf("recovered lsn %d, want %d", recs[0].LSN, total)
	}
}

func TestLogFull(t *testing.T) {
	_, _, l := newLog(t, 4096)
	payload := bytes.Repeat([]byte{1}, 1000)
	var err error
	n := 0
	for n < 100 {
		if _, err = l.Append(1, payload); err != nil {
			break
		}
		n++
	}
	if err != ErrLogFull {
		t.Fatalf("expected ErrLogFull, got %v after %d appends", err, n)
	}
	// Reclaiming everything lets appends proceed again.
	l.Flush()
	l.Reclaim(l.NextLSN())
	if _, err := l.Append(1, payload); err != nil {
		t.Fatalf("append after reclaim: %v", err)
	}
}

func TestPinBlocksReclaim(t *testing.T) {
	env, _, l := newLog(t, 1<<20)
	lsn1, _ := l.Append(1, []byte("pinned"))
	l.Append(1, []byte("later"))
	l.Flush()
	unpin := l.Pin(lsn1)
	l.Reclaim(l.NextLSN())
	if l.LiveBytes() == 0 {
		t.Fatal("pin did not prevent reclamation")
	}
	if n := metricstest.Counter(t, env.Metrics, "wal.reclaim.pinblocked"); n != 1 {
		t.Fatalf("wal.reclaim.pinblocked=%d", n)
	}
	unpin()
	l.Reclaim(l.NextLSN())
	if l.LiveBytes() != 0 {
		t.Fatalf("after unpin, %d live bytes remain", l.LiveBytes())
	}
}

func TestUnpinIdempotent(t *testing.T) {
	_, _, l := newLog(t, 1<<20)
	lsn, _ := l.Append(1, []byte("x"))
	unpin := l.Pin(lsn)
	unpin()
	unpin() // double release must not underflow another pin
	unpin2 := l.Pin(lsn)
	_ = unpin2
	if len(l.pins) != 1 || l.pins[lsn] != 1 {
		t.Fatalf("pin state corrupted: %v", l.pins)
	}
}

func TestRecoverFromHintMidLog(t *testing.T) {
	env, f, l := newLog(t, 1<<20)
	l.Append(1, []byte("old-1"))
	l.Append(1, []byte("old-2"))
	l.Flush()
	hint := l.Reclaim(3) // both old records reclaimed
	l.Append(1, []byte("new-3"))
	l.Flush()
	recs, rerr := Recover(env, f, hint)
	if rerr != nil {
		t.Fatalf("recover: %v", rerr)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "new-3" {
		t.Fatalf("recovered %v from mid-log hint", recs)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	_, _, l := newLog(t, 4096)
	if _, err := l.Append(1, make([]byte, 8192)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestLoggingChargesTime(t *testing.T) {
	env, _, l := newLog(t, 1<<20)
	l.Append(1, bytes.Repeat([]byte{1}, 4096))
	l.Flush()
	if env.Now() == 0 {
		t.Fatal("logging charged no simulated time")
	}
}

// TestTornTailEveryByteBoundary cuts the flushed log mid-record at every
// byte boundary of the final record — the torn-write shapes a crashed
// device flush can leave — and checks Recover returns exactly the intact
// prefix, never panics, and never fabricates a record. Both a zeroed
// suffix (fresh region) and a stale-garbage suffix (recycled region) are
// exercised.
func TestTornTailEveryByteBoundary(t *testing.T) {
	const nrec = 20
	env, f, l := newLog(t, 1<<20)
	for i := 0; i < nrec; i++ {
		// Non-zero payloads so a zeroed suffix cannot masquerade as a
		// valid record body whose checksum happens to hold.
		p := bytes.Repeat([]byte{byte(i + 1)}, 50+i*7)
		if _, err := l.Append(RecordType(1), p); err != nil {
			t.Fatal(err)
		}
	}
	l.Flush()
	lastPos := l.positions[len(l.positions)-1].pos
	lastLen := l.head - lastPos
	pristine := append([]byte{}, f.data...)
	hint := Hint{Offset: 0, LSN: 1, Epoch: 1}

	for _, fill := range []byte{0x00, 0xa5} {
		for cut := int64(0); cut < lastLen; cut++ {
			copy(f.data, pristine)
			for i := lastPos + cut; i < l.head; i++ {
				f.data[i] = fill
			}
			recs, rerr := Recover(env, f, hint)
			if rerr != nil {
				t.Fatalf("recover: %v", rerr)
			}
			if len(recs) != nrec-1 {
				t.Fatalf("fill %#x cut %d: recovered %d records, want %d (flushed prefix)",
					fill, cut, len(recs), nrec-1)
			}
			for i, r := range recs {
				if r.LSN != uint64(i+1) || len(r.Payload) != 50+i*7 || r.Payload[0] != byte(i+1) {
					t.Fatalf("fill %#x cut %d: record %d corrupted (lsn %d, %d bytes)",
						fill, cut, i, r.LSN, len(r.Payload))
				}
			}
		}
	}
	// The full record survives an exact cut at its end.
	copy(f.data, pristine)
	if recs, rerr := Recover(env, f, hint); rerr != nil || len(recs) != nrec {
		t.Fatalf("untorn log recovered %d records (err %v), want %d", len(recs), rerr, nrec)
	}
}

// TestRecoverStopsAtInvalidMiddleRecord is the reordered-persistence
// guarantee: if a crash persists a later record but not an earlier one,
// recovery must stop at the gap rather than replay the later record out
// of order.
func TestRecoverStopsAtInvalidMiddleRecord(t *testing.T) {
	const nrec = 10
	env, f, l := newLog(t, 1<<20)
	for i := 0; i < nrec; i++ {
		if _, err := l.Append(RecordType(1), bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	l.Flush()
	// Wipe record 6 (index 5) as if its write never reached the platter.
	start := l.positions[5].pos
	end := l.positions[6].pos
	for i := start; i < end; i++ {
		f.data[i] = 0
	}
	recs, rerr := Recover(env, f, Hint{Offset: 0, LSN: 1, Epoch: 1})
	if rerr != nil {
		t.Fatalf("recover: %v", rerr)
	}
	if len(recs) != 5 {
		t.Fatalf("recovered %d records past a hole, want 5", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
}

// scanMinPinned is the full-map scan minPinned used to be, kept as the
// reference the heap is checked against.
func scanMinPinned(pins map[uint64]int) (uint64, bool) {
	var min uint64
	found := false
	for lsn := range pins {
		if !found || lsn < min {
			min = lsn
			found = true
		}
	}
	return min, found
}

// TestPinReclaimProperty drives random append/pin/release/reclaim
// sequences. After every step the heap's oldest pin must equal the map
// scan's and the tail must not have passed it, and before every full
// reclaim Reclaimable must predict exactly what Reclaim then frees.
func TestPinReclaimProperty(t *testing.T) {
	type pin struct {
		lsn     uint64
		release func()
	}
	for seed := uint64(1); seed <= 16; seed++ {
		env, _, l := newLog(t, 32<<10)
		rnd := sim.NewRand(seed)
		var live []pin
		reclaims, blocked := 0, 0
		for step := 0; step < 5000; step++ {
			switch op := rnd.Intn(16); {
			case op < 8:
				// Append; half the time pin the new record, as a deferred
				// create does.
				lsn, err := l.Append(1, make([]byte, 16+rnd.Intn(240)))
				if err == ErrLogFull {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if rnd.Intn(2) == 0 {
					live = append(live, pin{lsn, l.Pin(lsn)})
				}
			case op < 9:
				// Pin some record that is still live, out of LSN order;
				// it may carry a pin already.
				if lo, next := l.Hint().LSN, l.NextLSN(); lo < next {
					lsn := lo + uint64(rnd.Int63n(int64(next-lo)))
					live = append(live, pin{lsn, l.Pin(lsn)})
				}
			case op < 13:
				if len(live) > 0 {
					i := rnd.Intn(len(live))
					live[i].release()
					live[i].release() // a second release is a no-op
					live = append(live[:i], live[i+1:]...)
				}
			case op < 14:
				// Partial reclaim, as after a checkpoint that started a
				// while ago.
				if lo, next := l.Hint().LSN, l.NextLSN(); lo < next {
					l.Reclaim(lo + uint64(rnd.Int63n(int64(next-lo)+1)))
				}
			default:
				want := l.Reclaimable()
				peek := l.HintAfterReclaim(l.NextLSN())
				before := l.LiveBytes()
				was := metricstest.Counter(t, env.Metrics, "wal.reclaim.pinblocked")
				hint := l.Reclaim(l.NextLSN())
				if freed := before - l.LiveBytes(); freed != want {
					t.Fatalf("seed %d step %d: Reclaimable said %d, Reclaim freed %d", seed, step, want, freed)
				}
				if hint != peek {
					t.Fatalf("seed %d step %d: HintAfterReclaim %+v, Reclaim returned %+v", seed, step, peek, hint)
				}
				if l.Reclaimable() != 0 {
					t.Fatalf("seed %d step %d: %d bytes reclaimable right after a full reclaim", seed, step, l.Reclaimable())
				}
				reclaims++
				blocked += int(metricstest.Counter(t, env.Metrics, "wal.reclaim.pinblocked") - was)
			}
			got, gok := l.minPinned()
			ref, rok := scanMinPinned(l.pins)
			if got != ref || gok != rok {
				t.Fatalf("seed %d step %d: oldest pin %d,%v; map scan says %d,%v", seed, step, got, gok, ref, rok)
			}
			if len(l.pins) > len(live) {
				t.Fatalf("seed %d step %d: %d pinned LSNs for %d live pins", seed, step, len(l.pins), len(live))
			}
			if gok && l.Hint().LSN > got {
				t.Fatalf("seed %d step %d: tail at LSN %d passed the oldest live pin %d", seed, step, l.Hint().LSN, got)
			}
		}
		if reclaims == 0 || blocked == 0 || blocked == reclaims {
			t.Fatalf("seed %d: %d full reclaims, %d stopped by a pin: both kinds must occur", seed, reclaims, blocked)
		}
	}
}

// BenchmarkReclaimPinned is one log-space check and reclaim with 30 000
// live pins, the count tree_ops holds at its sync: each iteration releases
// the oldest pin, appends and pins a new record, and asks what a checkpoint
// would free before reclaiming it. The oldest pin was found by scanning
// the whole pin map, which made this step linear in the live pins.
func BenchmarkReclaimPinned(b *testing.B) {
	const pins = 30000
	_, _, l := newLog(b, 16<<20)
	payload := make([]byte, 100)
	release := make([]func(), 0, pins+b.N)
	add := func() {
		lsn, err := l.Append(1, payload)
		if err != nil {
			b.Fatal(err)
		}
		release = append(release, l.Pin(lsn))
	}
	for i := 0; i < pins; i++ {
		add()
	}
	if err := l.WriteOut(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var freed int64
	for i := 0; i < b.N; i++ {
		release[i]()
		add()
		freed += l.Reclaimable()
		l.Reclaim(l.NextLSN())
		if i%4096 == 4095 {
			// Keep the in-memory tail of the log bounded.
			if err := l.WriteOut(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if b.N > 1 && freed == 0 {
		b.Fatal("nothing was ever reclaimable")
	}
}

// TestRecordLayout pins the record bytes encode writes: header (magic,
// epoch, payload length, LSN, type), payload, then a CRC over both.
func TestRecordLayout(t *testing.T) {
	_, _, l := newLog(t, 1<<12)
	if _, err := l.Append(7, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	want := binary.BigEndian.AppendUint32(nil, recMagic)
	want = binary.BigEndian.AppendUint32(want, 1)
	want = binary.BigEndian.AppendUint32(want, 3)
	want = binary.BigEndian.AppendUint64(want, 1)
	want = append(want, 7, 'a', 'b', 'c')
	want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(want))
	if !bytes.Equal(l.pending, want) {
		t.Fatalf("record bytes %x, want %x", l.pending, want)
	}
}

// TestAppendAllocatesNothing is the log's allocation guard: once the
// pending buffer has grown, Append builds records in place.
func TestAppendAllocatesNothing(t *testing.T) {
	_, _, l := newLog(t, 1<<20)
	payload := bytes.Repeat([]byte{1}, 64)
	for i := 0; i < 2000; i++ {
		l.Append(1, payload)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Reclaim(l.NextLSN())
	if n := testing.AllocsPerRun(1000, func() { l.Append(1, payload) }); n != 0 {
		t.Fatalf("Append allocates %v times per record, want 0", n)
	}
}
