package betree

import (
	"bytes"
	"errors"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/ioerr"
	"betrfs/internal/kmem"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
)

// TestBlockTableDefectRoundTrip exercises the grown-defect list through
// the superblock format: a defect-free table serializes byte-compatibly
// with the pre-defect-list layout, relocation retires the old extent,
// and a serialize/load round trip preserves the defect list while
// keeping retired space off the rebuilt free list.
func TestBlockTableDefectRoundTrip(t *testing.T) {
	const capacity = 1 << 20
	bt := newBlockTable(capacity)
	for id := nodeID(1); id <= 3; id++ {
		e, err := bt.allocate(8192)
		if err != nil {
			t.Fatal(err)
		}
		bt.place(id, e)
	}
	if got, want := len(bt.serialize()), 8+24*3; got != want {
		t.Fatalf("defect-free table serializes to %d bytes, want the legacy %d", got, want)
	}

	old, _ := bt.lookup(2)
	ne, err := bt.relocate(2, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if ne == old {
		t.Fatal("relocate returned the failed extent")
	}
	if cur, _ := bt.lookup(2); cur != ne {
		t.Fatalf("mapping after relocate = %+v, want %+v", cur, ne)
	}
	if bt.checkpointed[2] {
		t.Fatal("relocated node still marked checkpointed")
	}
	if n, b := bt.defectStats(); n != 1 || b != old.len {
		t.Fatalf("defectStats = (%d, %d), want (1, %d)", n, b, old.len)
	}

	bt2, err := loadBlockTable(capacity, bt.serialize())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if n, b := bt2.defectStats(); n != 1 || b != old.len {
		t.Fatalf("defects lost in round trip: (%d, %d)", n, b)
	}
	if cur, ok := bt2.lookup(2); !ok || cur != ne {
		t.Fatalf("mapping lost in round trip: (%+v, %v)", cur, ok)
	}
	// Exhaust the loaded table: no allocation may ever land on the
	// retired extent or on a live mapping.
	liveOrDead := append([]extent{old}, ne)
	for id := nodeID(1); id <= 3; id++ {
		e, _ := bt2.lookup(id)
		liveOrDead = append(liveOrDead, e)
	}
	for {
		e, err := bt2.allocate(8192)
		if err != nil {
			if !errors.Is(err, ioerr.ErrNoSpace) {
				t.Fatalf("allocate exhausted with %v, want ENOSPC", err)
			}
			break
		}
		for _, u := range liveOrDead {
			if e.off < u.off+u.len && u.off < e.off+e.len {
				t.Fatalf("allocate handed out %+v overlapping used/retired %+v", e, u)
			}
		}
	}
}

// TestBlockTableRelocateENOSPC checks that a failed relocation is a
// no-op: with no free space left, the mapping and the defect list are
// untouched, so the caller can fall back to the read-only degradation
// with the table still consistent.
func TestBlockTableRelocateENOSPC(t *testing.T) {
	bt := newBlockTable(16384)
	e, err := bt.allocate(8192)
	if err != nil {
		t.Fatal(err)
	}
	bt.place(1, e)
	if _, err := bt.allocate(8192); err != nil {
		t.Fatal(err)
	}
	if _, err := bt.relocate(1, 8192); !errors.Is(err, ioerr.ErrNoSpace) {
		t.Fatalf("relocate on a full table = %v, want ENOSPC", err)
	}
	if cur, ok := bt.lookup(1); !ok || cur != e {
		t.Fatalf("failed relocate moved the mapping: (%+v, %v)", cur, ok)
	}
	if n, _ := bt.defectStats(); n != 0 {
		t.Fatalf("failed relocate grew %d defects", n)
	}
	if _, err := bt.relocate(99, 4096); err == nil {
		t.Fatal("relocate of an unmapped node succeeded")
	}
}

// TestBlockTableDefectOverlapRejected checks the load-time invariant: a
// superblock whose defect list overlaps a live mapping (a lost or
// double-allocated extent) is rejected instead of silently rebuilding a
// free list over it.
func TestBlockTableDefectOverlapRejected(t *testing.T) {
	bt := newBlockTable(1 << 20)
	e, err := bt.allocate(8192)
	if err != nil {
		t.Fatal(err)
	}
	bt.place(1, e)
	bt.retire(e) // same extent live and retired: corrupt table
	if _, err := loadBlockTable(1<<20, bt.serialize()); err == nil {
		t.Fatal("overlapping defect/entry extents loaded without error")
	}
}

// relocStore builds a store over a fault device so tests can grow media
// defects under specific extents. Node geometry is shrunk so a few
// thousand keys spread across many nodes.
func relocStore(t *testing.T) (*sim.Env, *blockdev.FaultDev, *sfl.SFL, *Store) {
	t.Helper()
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	fdev := blockdev.NewFault(env, dev, blockdev.FaultPlan{})
	backend, err := sfl.NewDefault(env, fdev)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.NodeSize = 64 << 10
	cfg.BasementSize = 4 << 10
	cfg.Fanout = 8
	cfg.CacheBytes = 8 << 20
	s, err := Open(env, kmem.New(env, true), cfg, backend)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return env, fdev, backend, s
}

// dataFileTail returns the end of the highest durable data-tree extent;
// with a first-fit allocator, fresh bulk writes allocate from there.
func dataFileTail(s *Store) int64 {
	var tail int64
	for _, rep := range s.Scrub() {
		if rep.Tree == "data" && rep.Off+rep.Len > tail {
			tail = rep.Off + rep.Len
		}
	}
	return tail
}

// TestWritePathRelocationDeterministic grows a one-page media defect at
// the data file's free tail and checks the write path end to end: the
// first node write to land there fails non-transiently, the store
// relocates it (counted in io.defect.relocate.write), the checkpoint
// succeeds, no EROFS latch trips, and every key survives a cold scrub
// and read-back.
func TestWritePathRelocationDeterministic(t *testing.T) {
	env, fdev, backend, s := relocStore(t)
	const nkeys = 3000
	for i := 0; i < nkeys; i++ {
		s.Data().Put(k(i), v(i, 128), LogAuto)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	tail := dataFileTail(s)
	fdev.AddBadRange(devOffset(backend, "data", tail), 4096)

	for i := nkeys; i < 2*nkeys; i++ {
		s.Data().Put(k(i), v(i, 128), LogAuto)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint over a grown defect: %v", err)
	}
	if got := env.Metrics.Counter("io.defect.relocate.write").Load(); got == 0 {
		t.Fatal("io.defect.relocate.write = 0: no write hit the bad page; test is vacuous")
	}
	if count, bytes := s.DefectStats(); count == 0 || bytes == 0 {
		t.Fatalf("DefectStats = (%d, %d) after relocation", count, bytes)
	}
	if err := s.IOErr(); err != nil {
		t.Fatalf("store latched read-only despite relocation: %v", err)
	}

	s.DropCleanCaches()
	for i := 0; i < 2*nkeys; i++ {
		val, ok, err := s.Data().Get(k(i))
		if err != nil || !ok {
			t.Fatalf("key %d after relocation: (%v, %v)", i, ok, err)
		}
		if !bytes.Equal(val, v(i, 128)) {
			t.Fatalf("key %d: wrong bytes after relocation", i)
		}
	}
	for _, rep := range s.Scrub() {
		if rep.Err != nil {
			t.Errorf("post-relocation scrub: %s node %d: %v", rep.Tree, rep.ID, rep.Err)
		}
	}
}

// TestWritePathRelocationExhausted grows a defect over the whole data
// file, so every relocation lands on bad media too: the first failed node
// write is relocated relocateAttempts times, each attempt fails, and the
// checkpoint surfaces EIO and latches the store read-only.
func TestWritePathRelocationExhausted(t *testing.T) {
	env, fdev, backend, s := relocStore(t)
	const nkeys = 3000
	for i := 0; i < nkeys; i++ {
		s.Data().Put(k(i), v(i, 128), LogAuto)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fdev.AddBadRange(devOffset(backend, "data", 0), backend.Layout().DataBytes)

	for i := nkeys; i < 2*nkeys; i++ {
		s.Data().Put(k(i), v(i, 128), LogAuto)
	}
	err := s.Checkpoint()
	if err == nil {
		t.Fatal("checkpoint over a data file of bad media succeeded")
	}
	if !errors.Is(err, ioerr.ErrIO) {
		t.Fatalf("checkpoint error = %v, want EIO-class", err)
	}
	if !errors.Is(s.IOErr(), ioerr.ErrIO) {
		t.Fatalf("store latch = %v, want EIO-class", s.IOErr())
	}
	if got := env.Metrics.Counter("io.defect.relocate.write").Load(); got == 0 || got != relocateAttempts {
		t.Fatalf("io.defect.relocate.write = %d, want relocateAttempts = %d > 0: one node, every attempt failed", got, relocateAttempts)
	}
}

// TestScrubRepairUsesCacheCopy grows a defect under a durable node whose
// image is still resident, and checks ScrubRepair rewrites it from the
// cache copy: the repair succeeds, the old extent retires, and cold
// reads come back clean.
func TestScrubRepairUsesCacheCopy(t *testing.T) {
	env, fdev, backend, s := relocStore(t)
	const nkeys = 3000
	for i := 0; i < nkeys; i++ {
		s.Data().Put(k(i), v(i, 128), LogAuto)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	victim := largestLeaf(t, s)
	fdev.AddBadRange(devOffset(backend, "data", victim.Off), victim.Len)

	st, err := s.ScrubRepair()
	if err != nil {
		t.Fatalf("scrub repair: %v", err)
	}
	if st.Bad != 1 || st.Repaired != 1 || st.Unrepairable != 0 {
		t.Fatalf("RepairStats = %+v, want exactly the one injected node repaired", st)
	}
	if got := env.Metrics.Counter("scrub.repair.node").Load(); got != 1 {
		t.Fatalf("scrub.repair.node = %d, want 1", got)
	}
	s.DropCleanCaches()
	for i := 0; i < nkeys; i++ {
		if _, ok, err := s.Data().Get(k(i)); err != nil || !ok {
			t.Fatalf("key %d after repair: (%v, %v)", i, ok, err)
		}
	}
	for _, rep := range s.Scrub() {
		if rep.Err != nil {
			t.Errorf("post-repair scrub: %s node %d: %v", rep.Tree, rep.ID, rep.Err)
		}
	}
}

// TestScrubRepairUnrepairable drops every cache copy before repairing a
// defect-covered node: with neither a readable image nor a resident
// copy, repair must report the node unrepairable — never fabricate data
// — and the store must stay mounted.
func TestScrubRepairUnrepairable(t *testing.T) {
	_, fdev, backend, s := relocStore(t)
	const nkeys = 3000
	for i := 0; i < nkeys; i++ {
		s.Data().Put(k(i), v(i, 128), LogAuto)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	victim := largestLeaf(t, s)
	s.DropCleanCaches()
	fdev.AddBadRange(devOffset(backend, "data", victim.Off), victim.Len)

	st, err := s.ScrubRepair()
	if err != nil {
		t.Fatalf("scrub repair: %v", err)
	}
	if st.Bad != 1 || st.Unrepairable != 1 || st.Repaired != 0 {
		t.Fatalf("RepairStats = %+v, want the node reported unrepairable", st)
	}
	// The damage is still there for a verdict scrub (betrfsck exit 3).
	unreadable := 0
	for _, rep := range s.Scrub() {
		if rep.Unreadable() {
			unreadable++
		}
	}
	if unreadable != 1 {
		t.Fatalf("%d unreadable nodes after failed repair, want 1", unreadable)
	}
}
