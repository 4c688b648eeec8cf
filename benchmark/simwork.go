package main

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
)

// The three simulated workloads. Each is single-goroutine and
// deterministic: the same seed gives the same simulated clock, bit for
// bit. An "op" is one call from this file into the mount or a file.

// planChunks cuts total bytes into call sizes drawn from r around mean:
// whole pages between 15/16 and 17/16 of mean, the last one cut to fit.
func planChunks(r *rng, total, mean int64) []int64 {
	var plan []int64
	for left := total; left > 0; {
		n := mean - mean/16 + r.intn(mean/8/pageSize+1)*pageSize
		if n > left {
			n = left
		}
		plan = append(plan, n)
		left -= n
	}
	return plan
}

// fillBlocks writes version-0 content of blocks [first, ...) into buf.
func fillBlocks(buf []byte, seed, id uint64, first int64) {
	for off := 0; off < len(buf); off += pageSize {
		fill(buf[off:min(off+pageSize, len(buf))], contentKey(seed, id, first+int64(off/pageSize), 0))
	}
}

// writeFile creates path and writes the chunk plan to it, then fsyncs. With
// timed set each call is an op; otherwise (set-up) calls are only spanned.
func (t *trial) writeFile(path string, id uint64, plan []int64, buf []byte, timed bool) error {
	begin, end := t.begin, t.end
	if !timed {
		begin, end = t.spanOnly, t.spanEnd
	}
	begin("create")
	f, err := t.st.mount.Create(path)
	end("create", err)
	if err != nil {
		return err
	}
	var off int64
	for _, n := range plan {
		fillBlocks(buf[:n], t.cfg.Seed, id, off/pageSize)
		begin("write")
		w, err := f.Write(buf[:n])
		if err == nil && int64(w) != n {
			err = fmt.Errorf("short write: %d of %d", w, n)
		}
		end("write", err)
		off += n
	}
	if timed {
		t.res.UserWritten += off
	}
	begin("fsync")
	err = f.Fsync()
	end("fsync", err)
	begin("close")
	f.Close()
	end("close", nil)
	return nil
}

// expectStat checks, outside any phase, that path exists or that it does
// not.
func (t *trial) expectStat(path string, exists bool) {
	t.spanOnly("stat")
	_, err := t.st.mount.Stat(path)
	t.spanEnd("stat", nil)
	if exists && err != nil || !exists && !errors.Is(err, errNotExist) {
		t.fail("stat %s: %v, want exists=%v", path, err, exists)
	}
}

// renameAndDelete is tree_ops' tail: rename dir, the one thing in the root
// directory, and sync; drop caches, remove it and sync. It checks that the
// rename moved the name and that the delete left the root directory empty.
func (t *trial) renameAndDelete(dir string) {
	m := t.st.mount
	moved := dir + ".moved"

	t.startPhase(kindRename)
	t.begin("rename")
	err := m.Rename(dir, moved)
	t.end("rename", err)
	t.begin("sync")
	err = m.Sync()
	t.end("sync", err)
	t.endPhase()
	t.expectStat(dir, false)
	t.expectStat(moved, true)

	t.startPhase(kindDelete)
	t.dropCaches()
	t.begin("remove_all")
	err = m.RemoveAll(moved)
	t.end("remove_all", err)
	t.begin("sync")
	err = m.Sync()
	t.end("sync", err)
	t.endPhase()
	t.spanOnly("readdir")
	ents, err := m.ReadDir("")
	t.spanEnd("readdir", nil)
	if err != nil || len(ents) != 0 {
		t.fail("root after delete: %d entries, err=%v", len(ents), err)
	}
}

// seqIO: write one file front to back and fsync; read it back cold.
func (t *trial) seqIO() error {
	const path = "seq.dat"
	id := fileID(path)
	// The seed draws the file's exact length (its last page is partial) and
	// the size of every call.
	r := newRNG(t.cfg.Seed, 1)
	size := t.sz.fileBytes + 1 + r.intn(pageSize-1)
	writePlan := planChunks(r, size, t.sz.chunk)
	readPlan := planChunks(r, size, t.sz.chunk)
	buf := make([]byte, max(slices.Max(writePlan), slices.Max(readPlan)))
	t.lat = make([]int64, 0, len(readPlan))
	if err := t.build(stackOpts{}); err != nil {
		return err
	}
	if t.setupDone() {
		return nil
	}
	m := t.st.mount

	t.startPhase(kindWrite)
	if err := t.writeFile(path, id, writePlan, buf, true); err != nil {
		return err
	}
	t.endPhase()

	t.dropCaches()
	t.startPhase(kindRead)
	t.begin("open")
	f, err := m.Open(path)
	t.end("open", err)
	if err != nil {
		return err
	}
	var off int64
	for _, n := range readPlan {
		t.begin("read")
		got, err := f.Read(buf[:n])
		if err == nil && int64(got) != n {
			err = fmt.Errorf("short read: %d of %d", got, n)
		}
		t.endRead("read", err)
		for b := int64(0); b < n; b += pageSize {
			blk := (off + b) / pageSize
			if !t.check.block(buf[b:min(b+pageSize, n)], contentKey(t.cfg.Seed, id, blk, 0)) {
				t.fail("read: block %d differs", blk)
			}
		}
		off += n
	}
	t.res.UserRead += off
	t.begin("close")
	f.Close()
	t.end("close", nil)
	t.endPhase()
	return nil
}

// randShadow is what rand_io remembers of the file instead of a copy: how
// often each block was overwritten whole, and the 4-byte patches in the
// order they are written.
type randShadow struct {
	seed, id uint64
	version  []uint32  // per block
	patchOff []int64   // per patch
	byBlock  [][]int32 // per block, the patches that touch it, in order
	patched  int32     // patches written so far
	since    []int32   // per block, the first patch its last overwrite left standing
}

func patchValue(seed uint64, i int32) [4]byte {
	v := mix64(seed ^ uint64(i)*golden)
	return [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
}

// overwrite records that block blk is about to be written whole, and
// returns its new content's key.
func (s *randShadow) overwrite(blk int64) uint64 {
	s.version[blk]++
	s.since[blk] = s.patched
	return contentKey(s.seed, s.id, blk, s.version[blk])
}

// expect builds block blk's expected bytes in buf.
func (s *randShadow) expect(buf []byte, blk int64) {
	fill(buf, contentKey(s.seed, s.id, blk, s.version[blk]))
	base := blk * pageSize
	for _, i := range s.byBlock[blk] {
		if i < s.since[blk] {
			continue
		}
		if i >= s.patched {
			break
		}
		val := patchValue(s.seed, i)
		for k := int64(0); k < 4; k++ {
			if p := s.patchOff[i] + k - base; p >= 0 && p < pageSize {
				buf[p] = val[k]
			}
		}
	}
}

// share returns the bounds of round r's share of n things.
func share(n, r, rounds int) (lo, hi int) { return r * n / rounds, (r + 1) * n / rounds }

// randIO: in rounds, overwrite blocks of a big file at random and patch it
// with unaligned 4-byte writes, then read blocks back at random, both from
// dropped caches. Over all rounds 80% of the file's blocks are overwritten
// and a tenth read.
//
// The rounds are there because one tree is one point on the flush sawtooth:
// how full the few upper nodes' buffers are when the writes stop decides
// what every cold read after them costs, and which point that is follows
// the placement of the writes. With all reads behind all writes, ten seeds
// gave sim_read_s 2.2 to 4.8 s. Reads spread over the course of the writes
// sample the sawtooth throughout, and the seeds agree (README.md "Seeds").
func (t *trial) randIO() error {
	const path = "rand.dat"
	sz := t.sz
	blocks := sz.fileBytes / pageSize
	sh := &randShadow{
		seed: t.cfg.Seed, id: fileID(path),
		version:  make([]uint32, blocks),
		patchOff: make([]int64, sz.patches),
		byBlock:  make([][]int32, blocks),
		since:    make([]int32, blocks),
	}
	r := newRNG(t.cfg.Seed, 2)
	overwrite := make([]int32, sz.overwrites)
	for i := range overwrite {
		overwrite[i] = int32(r.intn(blocks))
	}
	r = newRNG(t.cfg.Seed, 3)
	for i := range sh.patchOff {
		off := r.intn(sz.fileBytes - 4)
		sh.patchOff[i] = off
		for blk := off / pageSize; blk <= (off+3)/pageSize; blk++ {
			sh.byBlock[blk] = append(sh.byBlock[blk], int32(i))
		}
	}
	r = newRNG(t.cfg.Seed, 4)
	reads := make([]int32, sz.randReads)
	for i := range reads {
		reads[i] = int32(r.intn(blocks))
	}
	fillPlan := planChunks(newRNG(t.cfg.Seed, 5), sz.fileBytes, sz.chunk)
	buf := make([]byte, slices.Max(fillPlan))
	want := make([]byte, pageSize)
	t.lat = make([]int64, 0, sz.randReads)

	if err := t.build(stackOpts{}); err != nil {
		return err
	}
	if err := t.writeFile(path, sh.id, fillPlan, buf, false); err != nil {
		return err
	}
	t.dropCaches()
	m := t.st.mount
	t.spanOnly("open")
	f, err := m.Open(path)
	t.spanEnd("open", err)
	if err != nil {
		return err
	}
	if t.setupDone() {
		f.Close()
		return nil
	}

	page := buf[:pageSize]
	patch := buf[pageSize : pageSize+4] // reused: a fresh array per op would be the generator's allocation, not the stack's
	for round := 0; round < sz.randRounds; round++ {
		// Every write phase starts from dropped caches too. A cold point read
		// leaves its leaf in the node cache with only the queried basement
		// loaded; on the seed commit a flush that reaches such a leaf without
		// touching every other basement dirties it as it is, and the next
		// checkpoint panics ("serializing leaf with unloaded basement": 2 of
		// 56 seeds, before this drop). The write phases issue no query, so
		// with the read phase's leaves gone no leaf is half loaded when a
		// flush arrives.
		if round > 0 {
			t.dropCaches()
		}
		t.startPhase(kindWrite)
		lo, hi := share(len(overwrite), round, sz.randRounds)
		for _, blk := range overwrite[lo:hi] {
			fill(page, sh.overwrite(int64(blk)))
			t.begin("write_4k")
			_, err := f.WriteAt(page, int64(blk)*pageSize)
			t.end("write_4k", err)
		}
		t.res.UserWritten += int64(hi-lo) * pageSize
		t.begin("fsync")
		err = f.Fsync()
		t.end("fsync", err)
		lo, hi = share(len(sh.patchOff), round, sz.randRounds)
		for i := int32(lo); i < int32(hi); i++ {
			val := patchValue(sh.seed, i)
			copy(patch, val[:])
			t.begin("write_4b")
			_, err := f.WriteAt(patch, sh.patchOff[i])
			t.end("write_4b", err)
			sh.patched = i + 1
		}
		t.res.UserWritten += int64(hi-lo) * 4
		t.begin("fsync")
		err = f.Fsync()
		t.end("fsync", err)
		t.endPhase()

		t.dropCaches()
		t.startPhase(kindRead)
		lo, hi = share(len(reads), round, sz.randRounds)
		for _, blk := range reads[lo:hi] {
			t.begin("read_4k")
			n, err := f.ReadAt(page, int64(blk)*pageSize)
			if err == nil && n != pageSize {
				err = fmt.Errorf("short read: %d", n)
			}
			t.endRead("read_4k", err)
			sh.expect(want, int64(blk))
			if !bytes.Equal(page, want) {
				t.fail("read_4k: block %d differs", blk)
			}
		}
		t.res.UserRead += int64(hi-lo) * pageSize
		t.endPhase()
	}
	t.spanOnly("close")
	f.Close()
	t.spanEnd("close", nil)
	return nil
}

// treeStep is one creation in tree_ops' plan.
type treeStep struct {
	path string
	dir  bool
}

// planTree lays out n files in TokuBench's shape: a balanced tree of
// fanout treeFanout whose leaves hold the files. File names carry three
// hex digits drawn from the seed ahead of their index, so the files of a
// directory are not created in key order.
func planTree(seed uint64, root string, n int) []treeStep {
	var steps []treeStep
	created := 0
	var level func(dir string, remaining int)
	level = func(dir string, remaining int) {
		steps = append(steps, treeStep{path: dir, dir: true})
		if remaining <= treeFanout {
			for i := 0; i < remaining; i++ {
				idx := created + i
				name := fmt.Sprintf("f%03x%04x", mix64(seed^uint64(idx)*golden)&0xfff, idx&0xffff)
				steps = append(steps, treeStep{path: dir + "/" + name})
			}
			created += remaining
			return
		}
		per := (remaining + treeFanout - 1) / treeFanout
		for i := 0; i < treeFanout && remaining > 0; i++ {
			want := min(per, remaining)
			level(fmt.Sprintf("%s/d%03d", dir, i), want)
			remaining -= want
		}
	}
	level(root, n)
	return steps
}

// treeFileBytes is the size of the tree_ops file with identity id: between
// 3/4 and 5/4 of treeFileSize, as the seed draws it.
func treeFileBytes(seed, id uint64) int {
	return treeFileSize*3/4 + int(mix64(seed^id)%(treeFileSize/2+1))
}

// treeOps: create a tree of small files, walk it cold, rename its root,
// delete it.
func (t *trial) treeOps() error {
	const root = "tb"
	steps := planTree(t.cfg.Seed, root, t.sz.treeFiles)
	dirs := 0
	for _, s := range steps {
		if s.dir {
			dirs++
		}
	}
	files := len(steps) - dirs
	t.lat = make([]int64, 0, dirs)
	payload := make([]byte, treeFileSize*5/4)
	buf := make([]byte, pageSize)
	if err := t.build(stackOpts{}); err != nil {
		return err
	}
	if t.setupDone() {
		return nil
	}
	m := t.st.mount

	t.startPhase(kindWrite)
	for _, s := range steps {
		if s.dir {
			t.begin("mkdir")
			err := m.MkdirAll(s.path)
			t.end("mkdir", err)
			continue
		}
		id := fileID(s.path)
		data := payload[:treeFileBytes(t.cfg.Seed, id)]
		fill(data, contentKey(t.cfg.Seed, id, 0, 0))
		t.begin("create")
		f, err := m.Create(s.path)
		t.end("create", err)
		if err != nil {
			continue
		}
		t.begin("write")
		_, err = f.Write(data)
		t.end("write", err)
		t.begin("close")
		f.Close()
		t.end("close", nil)
		t.res.UserWritten += int64(len(data))
	}
	t.begin("sync")
	err := m.Sync()
	t.end("sync", err)
	t.endPhase()

	t.dropCaches()
	t.startPhase(kindRead)
	// First walk: read and verify every file. Its cold ReadDir calls are the
	// latency samples: nine tenths of the walk's host time is spent in them.
	var seenFiles, seenAll int
	var walk func(dir string, end func(string, error), visit func(path string, e dirEntry))
	walk = func(dir string, end func(string, error), visit func(path string, e dirEntry)) {
		t.begin("readdir")
		ents, err := m.ReadDir(dir)
		end("readdir", err)
		for _, e := range ents {
			p := dir + "/" + e.Name
			visit(p, e)
			if e.Dir {
				walk(p, end, visit)
			}
		}
	}
	walk(root, t.endRead, func(p string, e dirEntry) {
		if e.Dir {
			return
		}
		seenFiles++
		t.begin("open")
		f, err := m.Open(p)
		t.end("open", err)
		if err != nil {
			return
		}
		t.begin("read")
		n, err := f.Read(buf)
		t.end("read", err)
		t.res.UserRead += int64(n)
		if id := fileID(p); n != treeFileBytes(t.cfg.Seed, id) || !t.check.block(buf[:n], contentKey(t.cfg.Seed, id, 0, 0)) {
			t.fail("read %s: %d bytes, content differs", p, n)
		}
		t.begin("close")
		f.Close()
		t.end("close", nil)
	})
	if seenFiles != files {
		t.fail("walk: %d files, want %d", seenFiles, files)
	}
	// Second walk: stat everything.
	walk(root, t.end, func(p string, e dirEntry) {
		seenAll++
		t.begin("stat")
		a, err := m.Stat(p)
		t.end("stat", err)
		if err == nil && (a.Dir != e.Dir || (!a.Dir && a.Size != int64(treeFileBytes(t.cfg.Seed, fileID(p))))) {
			t.fail("stat %s: dir=%v size=%d", p, a.Dir, a.Size)
		}
	})
	if seenAll != files+dirs-1 { // the root itself is not an entry
		t.fail("stat walk: %d entries, want %d", seenAll, files+dirs-1)
	}
	t.endPhase()

	t.renameAndDelete(root)
	return nil
}
