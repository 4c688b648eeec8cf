package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// serve_mix: the concurrent stack behind fsserve on a loopback socket,
// driven in a closed loop by serveClients goroutines, one connection and
// one outstanding call each. An "op" is one draw from the mix, which is
// one to three wire calls; its latency is what the client waits for all
// of them.
//
// The measured loop waits in real time and its clients and workers
// interleave on one simulated clock, so nothing simulated repeats there
// (one seed gave sim_read_s 1.17 to 2.04 s). The driver takes every
// end-to-end metric from every workload, so serve_mix's simulated ones come
// from a trial of their own, in a process of its own
// (trialConfig.Deterministic): the same generator on the same seed deals
// the same op streams, the clients taking strict turns, to the repository's
// deterministic serving configuration, the single-goroutine stack behind a
// one-worker server. Its ops start from dropped caches and end with a sync
// of the mount, so that reads reach the device and writes reach flash; with
// the 16 MiB set warm, read_amp and write_amp would be 0 over 0.

type serveClass uint8

const (
	classRead serveClass = iota
	classGetattr
	classWrite
	classCreate
	classUnlink
	classReaddir
	classRename
	numClasses
)

var classNames = [numClasses]string{"read", "getattr", "write", "create", "unlink", "readdir", "rename"}

// classKind files each class under the kind its simulated time counts as in
// the deterministic trial: sim_read_s for the classes that change nothing,
// sim_write_s for the rest. RENAME and UNLINK have no kind of their own:
// what they cost apart from the other mutations is a flush that one of them
// happened to tip, 16 to 31 simulated ms from seed to seed.
var classKind = [numClasses]string{kindRead, kindRead, kindWrite, kindWrite, kindWrite, kindRead, kindWrite}

// mixShare is each class's share of every hundred ops. The generator
// deals shuffled decks of exactly these hundred, so every seed issues the
// same number of each class and only their order and targets vary.
var mixShare = [numClasses]int{50, 25, 12, 5, 3, 3, 2}

// spareFiles is how many empty files populate leaves under new/, so that
// an early unlink finds one to remove.
const spareFiles = 8

const createBytes = 512

// serveClient is one client: its connection, its generator, and its model
// of the files it owns (nobody else touches them).
type serveClient struct {
	t    *trial
	st   *stack // the instance the client talks to
	id   int
	cli  *wireClient
	r    *rng
	root string

	name    [][]string // [dir][slot] current base name
	fid     [][]uint64 // [dir][slot] content identity, fixed at creation
	version [][]uint32 // [dir][slot] whole-file overwrites so far
	created []string   // live files under root/new
	creates int
	renames int
	deck    []serveClass // what is left of the current hundred ops

	buf   []byte
	check checker

	// Recorded per op of the measured loop.
	lat   []int64
	class []serveClass

	attempted, failed     int64
	notes                 []string
	userWritten, userRead int64
}

func (c *serveClient) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf("client %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

func (c *serveClient) dir(d int) string     { return fmt.Sprintf("%s/d%02d", c.root, d) }
func (c *serveClient) path(d, s int) string { return c.dir(d) + "/" + c.name[d][s] }
func (c *serveClient) key(d, s int) uint64 {
	return contentKey(c.t.cfg.Seed, c.fid[d][s], 0, c.version[d][s])
}
func (c *serveClient) pick() (d, s int) {
	return int(c.r.intn(int64(len(c.name)))), int(c.r.intn(int64(len(c.name[0]))))
}
func (c *serveClient) must(what string, err error) bool {
	if err != nil {
		c.fail("%s: %v", what, err)
	}
	return err == nil
}

// populate is the client's share of set-up: its directories and files.
func (c *serveClient) populate(dirs, files int) {
	cli := c.cli
	c.must("mkdir", cli.Mkdir(c.root))
	c.must("mkdir", cli.Mkdir(c.root+"/new"))
	for ; c.creates < spareFiles; c.creates++ {
		p := fmt.Sprintf("%s/new/n%06d", c.root, c.creates)
		if _, _, err := cli.Create(p); c.must("create", err) {
			c.created = append(c.created, p)
		}
	}
	c.name = make([][]string, dirs)
	c.fid = make([][]uint64, dirs)
	c.version = make([][]uint32, dirs)
	for d := range c.name {
		c.must("mkdir", cli.Mkdir(c.dir(d)))
		c.name[d] = make([]string, files)
		c.fid[d] = make([]uint64, files)
		c.version[d] = make([]uint32, files)
		for s := range c.name[d] {
			c.name[d][s] = fmt.Sprintf("f%03d", s)
			p := c.path(d, s)
			c.fid[d][s] = fileID(p)
			fill(c.buf, c.key(d, s))
			h, _, err := cli.Create(p)
			if c.must("create", err) {
				_, err = cli.Write(h, 0, c.buf)
				c.must("write", err)
			}
		}
	}
}

// op draws one op from the mix, performs it and checks what came back. It
// returns the op's class and how far each clock moved meanwhile.
func (c *serveClient) op() (class serveClass, simNs, hostNs int64) {
	if len(c.deck) == 0 {
		for cl, n := range mixShare {
			for ; n > 0; n-- {
				c.deck = append(c.deck, serveClass(cl))
			}
		}
		for i := len(c.deck) - 1; i > 0; i-- {
			j := c.r.intn(int64(i + 1))
			c.deck[i], c.deck[j] = c.deck[j], c.deck[i]
		}
	}
	class, c.deck = c.deck[len(c.deck)-1], c.deck[:len(c.deck)-1]
	if class == classUnlink && len(c.created) == 0 {
		class = classCreate
	}
	cli := c.cli
	sim0, host0 := c.st.simNow(), time.Now()
	switch class {
	case classRead:
		d, s := c.pick()
		h, _, err := cli.Lookup(c.path(d, s), true)
		if c.must("lookup", err) {
			data, err := cli.Read(h, 0, pageSize)
			if c.must("read", err) {
				c.userRead += int64(len(data))
				if len(data) != pageSize || !c.check.block(data, c.key(d, s)) {
					c.fail("read %s: %d bytes, content differs", c.path(d, s), len(data))
				}
			}
		}
	case classGetattr:
		d, s := c.pick()
		a, err := cli.Getattr(c.path(d, s))
		if c.must("getattr", err) && (a.Dir || a.Size != pageSize) {
			c.fail("getattr %s: dir=%v size=%d", c.path(d, s), a.Dir, a.Size)
		}
	case classWrite:
		d, s := c.pick()
		h, _, err := cli.Lookup(c.path(d, s), true)
		if c.must("lookup", err) {
			c.version[d][s]++
			fill(c.buf, c.key(d, s))
			n, err := cli.Write(h, 0, c.buf)
			if !c.must("write", err) || n != pageSize {
				c.version[d][s]-- // the model keeps the last content known to be there
			}
			c.userWritten += int64(n)
		}
	case classCreate:
		p := fmt.Sprintf("%s/new/n%06d", c.root, c.creates)
		c.creates++
		h, _, err := cli.Create(p)
		if c.must("create", err) {
			c.created = append(c.created, p)
			fill(c.buf[:createBytes], contentKey(c.t.cfg.Seed, fileID(p), 0, 0))
			n, err := cli.Write(h, 0, c.buf[:createBytes])
			c.must("write", err)
			c.userWritten += int64(n)
			if c.creates%16 == 0 {
				c.must("fsync", cli.Fsync(h))
			}
		}
	case classUnlink:
		i := int(c.r.intn(int64(len(c.created))))
		if c.must("unlink", cli.Unlink(c.created[i])) {
			c.created[i] = c.created[len(c.created)-1]
			c.created = c.created[:len(c.created)-1]
		}
	case classReaddir:
		d, _ := c.pick()
		ents, err := cli.Readdir(c.dir(d))
		if c.must("readdir", err) && len(ents) != len(c.name[d]) {
			c.fail("readdir %s: %d entries, want %d", c.dir(d), len(ents), len(c.name[d]))
		}
	case classRename:
		d, s := c.pick()
		c.renames++
		to := fmt.Sprintf("f%03d.r%d", s, c.renames)
		if c.must("rename", cli.Rename(c.path(d, s), c.dir(d)+"/"+to)) {
			c.name[d][s] = to
		}
	}
	c.attempted++
	return class, c.st.simNow() - sim0, int64(time.Since(host0))
}

// dialClients connects serveClients clients to w, each with its own
// generator stream.
func (t *trial) dialClients(w *wireStack) ([]*serveClient, error) {
	clients := make([]*serveClient, serveClients)
	for i := range clients {
		cli, err := w.dial()
		if err != nil {
			for _, c := range clients[:i] {
				c.cli.Close()
			}
			return nil, err
		}
		clients[i] = &serveClient{
			t: t, st: w.stack, id: i, cli: cli, r: newRNG(t.cfg.Seed, 10+uint64(i)),
			root: fmt.Sprintf("c%d", i),
			buf:  make([]byte, pageSize),
		}
	}
	return clients, nil
}

// tally moves the clients' op counts into the trial's and hangs up.
func (t *trial) tally(clients []*serveClient) {
	for _, c := range clients {
		t.res.Attempted += c.attempted
		t.res.Failed += c.failed
		t.res.Notes = append(t.res.Notes, c.notes...)
		c.cli.Close()
	}
}

func (t *trial) serveMix() error {
	sz := t.sz
	concurrent := !t.cfg.Deterministic
	w, err := buildWireStack(concurrent, t.cfg.Traced)
	if err != nil {
		return err
	}
	defer w.stop()
	t.st = w.stack
	t.res.Transport = w.transport
	clients, err := t.dialClients(w)
	if err != nil {
		return err
	}
	defer t.tally(clients)
	// each runs f for every client: all at once against the concurrent
	// configuration, one after the other against the deterministic one.
	each := func(f func(c *serveClient)) {
		var wg sync.WaitGroup
		for _, c := range clients {
			if !concurrent {
				f(c)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				f(c)
			}()
		}
		wg.Wait()
	}
	each(func(c *serveClient) {
		c.populate(sz.serveDirs, sz.serveFiles)
		for i := 0; i < sz.serveWarm; i++ {
			c.op()
		}
		c.userWritten, c.userRead = 0, 0
		c.lat = make([]int64, 0, sz.serveOps)
		c.class = make([]serveClass, 0, sz.serveOps)
	})
	w.srv.Quiesce()
	if t.setupDone() {
		return nil
	}
	if t.cfg.Deterministic {
		t.serveDeterministic(w, clients)
		return nil
	}

	var wire0 map[string]int64
	if w.counts != nil {
		wire0 = w.counts.load()
	}
	snap0 := w.snapshot()
	busy0 := w.devBusyNs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, wall0 := cpuNow(), time.Now()
	each(func(c *serveClient) {
		for i := 0; i < sz.serveOps; i++ {
			class, _, hostNs := c.op()
			c.lat = append(c.lat, hostNs)
			c.class = append(c.class, class)
		}
	})
	t.res.WallNs = int64(time.Since(wall0))
	t.res.CPUNs = cpuNow() - cpu0
	runtime.ReadMemStats(&ms1)
	t.res.Mallocs = ms1.Mallocs - ms0.Mallocs
	t.res.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.srv.Quiesce()
	mergeDiff(&t.measured, snap0, w.snapshot())
	t.res.DevBusyNs = w.devBusyNs() - busy0
	t.res.Ops = int64(serveClients * sz.serveOps)

	byClass := make([][]int64, numClasses)
	var clientNs int64
	for _, c := range clients {
		t.lat = append(t.lat, c.lat...)
		for i, ns := range c.lat {
			byClass[c.class[i]] = append(byClass[c.class[i]], ns)
			clientNs += ns
		}
	}
	t.res.ClassP50, t.res.ClassP99 = map[string]float64{}, map[string]float64{}
	for class, ns := range byClass {
		slices.Sort(ns)
		t.res.ClassP50[classNames[class]] = float64(percentile(ns, 50)) / 1e3
		t.res.ClassP99[classNames[class]] = float64(percentile(ns, 99)) / 1e3
	}
	if w.counts != nil {
		t.res.Wire = w.counts.load()
		for name := range t.res.Wire {
			t.res.Wire[name] -= wire0[name]
		}
		t.res.Wire["client_wait_ns"] = clientNs
	}
	return nil
}

// serveDeterministic is the measured part of the deterministic trial: the
// measured loop's ops, the clients taking turns op by op, on the simulated
// clock alone. The caller has quiesced the server; the mount has no lock in
// this configuration, and that barrier is what orders the worker's last op
// before each direct call here.
func (t *trial) serveDeterministic(w *wireStack, clients []*serveClient) {
	w.mount.DropCaches()
	snap0 := w.snapshot()
	for i := 0; i < t.sz.serveOps; i++ {
		for _, c := range clients {
			class, simNs, _ := c.op()
			t.res.Ops++
			t.res.SimNs[classKind[class]] += simNs
		}
	}
	for _, c := range clients {
		t.res.UserWritten += c.userWritten
		t.res.UserRead += c.userRead
	}
	// No wire op syncs the mount, so the closing sync is issued directly.
	w.srv.Quiesce()
	sim0 := w.simNow()
	err := w.mount.Sync()
	t.res.SimNs[kindWrite] += w.simNow() - sim0
	t.res.Attempted++
	t.res.Ops++
	if err != nil {
		t.fail("sync: %v", err)
	}
	d := mergeDiff(nil, snap0, w.snapshot())
	t.res.FlashBytes, t.res.DevReadBytes = d["ftl.write.flash.bytes"], d["blockdev.read.bytes"]
}
