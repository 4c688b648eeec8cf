package fsserve_test

import (
	"bytes"
	"fmt"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/faulttest"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/systems"
	"betrfs/internal/vfs"
)

// confDriver executes file operations and reports results in wire terms
// (fsrpc.Status), so a wire client and a direct vfs.Mount caller can be
// compared op for op. Handles are named symbolically: each driver keeps
// its own table so numeric handle values never leak into comparisons.
type confDriver interface {
	mkdir(p string) fsrpc.Status
	create(p, handle string) (fsrpc.Attr, fsrpc.Status)
	lookup(p, handle string, open bool) (fsrpc.Attr, fsrpc.Status)
	getattr(p string) (fsrpc.Attr, fsrpc.Status)
	write(handle string, off int64, data []byte) (int, fsrpc.Status)
	read(handle string, off int64, n int) ([]byte, fsrpc.Status)
	fsync(handle string) fsrpc.Status
	readdir(p string) ([]fsrpc.DirEnt, fsrpc.Status)
	rename(a, b string) fsrpc.Status
	unlink(p string) fsrpc.Status
	rmdir(p string) fsrpc.Status
	degraded() bool
}

// wireDriver drives ops through an fsrpc client against an fsserve
// server.
type wireDriver struct {
	cli     *fsrpc.Client
	handles map[string]uint64
}

func newWireDriver(cli *fsrpc.Client) *wireDriver {
	return &wireDriver{cli: cli, handles: map[string]uint64{}}
}

func (d *wireDriver) mkdir(p string) fsrpc.Status { return fsrpc.StatusOf(d.cli.Mkdir(p)) }

func (d *wireDriver) create(p, handle string) (fsrpc.Attr, fsrpc.Status) {
	h, a, err := d.cli.Create(p)
	if err == nil {
		d.handles[handle] = h
	}
	return a, fsrpc.StatusOf(err)
}

func (d *wireDriver) lookup(p, handle string, open bool) (fsrpc.Attr, fsrpc.Status) {
	h, a, err := d.cli.Lookup(p, open)
	if err == nil && h != 0 {
		d.handles[handle] = h
	}
	return a, fsrpc.StatusOf(err)
}

func (d *wireDriver) getattr(p string) (fsrpc.Attr, fsrpc.Status) {
	a, err := d.cli.Getattr(p)
	return a, fsrpc.StatusOf(err)
}

func (d *wireDriver) write(handle string, off int64, data []byte) (int, fsrpc.Status) {
	n, err := d.cli.Write(d.handles[handle], off, data)
	return n, fsrpc.StatusOf(err)
}

func (d *wireDriver) read(handle string, off int64, n int) ([]byte, fsrpc.Status) {
	b, err := d.cli.Read(d.handles[handle], off, n)
	return b, fsrpc.StatusOf(err)
}

func (d *wireDriver) fsync(handle string) fsrpc.Status {
	return fsrpc.StatusOf(d.cli.Fsync(d.handles[handle]))
}

func (d *wireDriver) readdir(p string) ([]fsrpc.DirEnt, fsrpc.Status) {
	ents, err := d.cli.Readdir(p)
	return ents, fsrpc.StatusOf(err)
}

func (d *wireDriver) rename(a, b string) fsrpc.Status { return fsrpc.StatusOf(d.cli.Rename(a, b)) }
func (d *wireDriver) unlink(p string) fsrpc.Status    { return fsrpc.StatusOf(d.cli.Unlink(p)) }
func (d *wireDriver) rmdir(p string) fsrpc.Status     { return fsrpc.StatusOf(d.cli.Rmdir(p)) }

func (d *wireDriver) degraded() bool {
	sf, err := d.cli.Statfs()
	return err == nil && sf.Degraded
}

// directDriver drives the same ops straight into a vfs.Mount, mirroring
// the server's execute() call sequence exactly (CREATE is Create+Stat,
// LOOKUP is Stat then Open for non-directories, READ returns data only
// on success).
type directDriver struct {
	m       *vfs.Mount
	handles map[string]*vfs.File
}

func newDirectDriver(m *vfs.Mount) *directDriver {
	return &directDriver{m: m, handles: map[string]*vfs.File{}}
}

func (d *directDriver) mkdir(p string) fsrpc.Status { return fsrpc.StatusOf(d.m.Mkdir(p)) }

func (d *directDriver) create(p, handle string) (fsrpc.Attr, fsrpc.Status) {
	f, err := d.m.Create(p)
	if err != nil {
		return fsrpc.Attr{}, fsrpc.StatusOf(err)
	}
	a, err := d.m.Stat(p)
	if err != nil {
		return fsrpc.Attr{}, fsrpc.StatusOf(err)
	}
	d.handles[handle] = f
	return fsrpc.FromVFS(a), fsrpc.StatusOK
}

func (d *directDriver) lookup(p, handle string, open bool) (fsrpc.Attr, fsrpc.Status) {
	a, err := d.m.Stat(p)
	if err != nil {
		return fsrpc.Attr{}, fsrpc.StatusOf(err)
	}
	if !a.Dir && open {
		f, err := d.m.Open(p)
		if err != nil {
			return fsrpc.Attr{}, fsrpc.StatusOf(err)
		}
		d.handles[handle] = f
	}
	return fsrpc.FromVFS(a), fsrpc.StatusOK
}

func (d *directDriver) getattr(p string) (fsrpc.Attr, fsrpc.Status) {
	a, err := d.m.Stat(p)
	if err != nil {
		return fsrpc.Attr{}, fsrpc.StatusOf(err)
	}
	return fsrpc.FromVFS(a), fsrpc.StatusOK
}

func (d *directDriver) write(handle string, off int64, data []byte) (int, fsrpc.Status) {
	f, ok := d.handles[handle]
	if !ok {
		return 0, fsrpc.StatusBadHandle
	}
	n, err := f.WriteAt(data, off)
	if err != nil {
		return 0, fsrpc.StatusOf(err)
	}
	return n, fsrpc.StatusOK
}

func (d *directDriver) read(handle string, off int64, n int) ([]byte, fsrpc.Status) {
	f, ok := d.handles[handle]
	if !ok {
		return nil, fsrpc.StatusBadHandle
	}
	buf := make([]byte, n)
	rn, err := f.ReadAt(buf, off)
	if err != nil {
		return nil, fsrpc.StatusOf(err)
	}
	return buf[:rn], fsrpc.StatusOK
}

func (d *directDriver) fsync(handle string) fsrpc.Status {
	f, ok := d.handles[handle]
	if !ok {
		return fsrpc.StatusBadHandle
	}
	return fsrpc.StatusOf(f.Fsync())
}

func (d *directDriver) readdir(p string) ([]fsrpc.DirEnt, fsrpc.Status) {
	ents, err := d.m.ReadDir(p)
	if err != nil {
		return nil, fsrpc.StatusOf(err)
	}
	out := make([]fsrpc.DirEnt, 0, len(ents))
	for _, e := range ents {
		out = append(out, fsrpc.DirEnt{Name: e.Name, Dir: e.Dir})
	}
	return out, fsrpc.StatusOK
}

func (d *directDriver) rename(a, b string) fsrpc.Status { return fsrpc.StatusOf(d.m.Rename(a, b)) }
func (d *directDriver) unlink(p string) fsrpc.Status    { return fsrpc.StatusOf(d.m.Remove(p)) }
func (d *directDriver) rmdir(p string) fsrpc.Status     { return fsrpc.StatusOf(d.m.Rmdir(p)) }
func (d *directDriver) degraded() bool                  { return d.m.Degraded() != nil }

// confPair is two identically-built systems, one behind the wire and
// one driven directly, plus their fault devices for errno phases.
type confPair struct {
	wire   confDriver
	direct confDriver
	wireF  *blockdev.FaultDev
	dirF   *blockdev.FaultDev
}

func buildPair(t *testing.T, name string, scale int64) *confPair {
	t.Helper()
	plan := blockdev.FaultPlan{Seed: 5}
	pol := blockdev.DefaultRetryPolicy()
	wireSys, err := faulttest.Build(name, 5, scale, plan, pol)
	if err != nil {
		t.Fatal(err)
	}
	dirSys, err := faulttest.Build(name, 5, scale, plan, pol)
	if err != nil {
		t.Fatal(err)
	}
	srv := fsserve.New(wireSys.Env, wireSys.Mount, fsserve.DefaultConfig())
	t.Cleanup(func() { srv.Shutdown() })
	return &confPair{
		wire:   newWireDriver(dial(t, srv)),
		direct: newDirectDriver(dirSys.Mount),
		wireF:  wireSys.Fault,
		dirF:   dirSys.Fault,
	}
}

// both runs op against the wire and direct drivers and fails the test on
// any divergence in status.
func (p *confPair) both(t *testing.T, desc string, op func(confDriver) fsrpc.Status) fsrpc.Status {
	t.Helper()
	ws := op(p.wire)
	ds := op(p.direct)
	if ws != ds {
		t.Fatalf("%s: wire=%v direct=%v", desc, ws, ds)
	}
	return ws
}

func (p *confPair) bothAttr(t *testing.T, desc string, op func(confDriver) (fsrpc.Attr, fsrpc.Status)) {
	t.Helper()
	wa, ws := op(p.wire)
	da, ds := op(p.direct)
	if ws != ds {
		t.Fatalf("%s: wire=%v direct=%v", desc, ws, ds)
	}
	if wa != da {
		t.Fatalf("%s: attr wire=%+v direct=%+v", desc, wa, da)
	}
}

// TestWireConformance drives every protocol op through the wire and
// directly against an identically-built mount for each system under
// fault test, requiring bit-identical statuses, attributes, data, and
// directory listings — on the happy path, on the static error paths
// (ENOENT, EEXIST, EISDIR, ENOTEMPTY), and through a device write death
// (EIO surfacing, then the sticky EROFS latch).
func TestWireConformance(t *testing.T) {
	for _, name := range systems.Core {
		t.Run(name, func(t *testing.T) {
			p := buildPair(t, name, faulttest.DefaultScale)

			// Happy path and static errnos.
			p.both(t, "mkdir d", func(d confDriver) fsrpc.Status { return d.mkdir("d") })
			p.both(t, "mkdir d again", func(d confDriver) fsrpc.Status { return d.mkdir("d") })
			p.bothAttr(t, "create d/f", func(d confDriver) (fsrpc.Attr, fsrpc.Status) { return d.create("d/f", "hf") })
			payload := make([]byte, 6000)
			for j := range payload {
				payload[j] = byte(j*7 + 1)
			}
			p.both(t, "write d/f", func(d confDriver) fsrpc.Status {
				n, st := d.write("hf", 0, payload)
				if st == fsrpc.StatusOK && n != len(payload) {
					t.Fatalf("short write: %d", n)
				}
				return st
			})
			p.both(t, "fsync d/f", func(d confDriver) fsrpc.Status { return d.fsync("hf") })
			p.bothAttr(t, "getattr d/f", func(d confDriver) (fsrpc.Attr, fsrpc.Status) { return d.getattr("d/f") })
			p.bothAttr(t, "lookup-open d/f", func(d confDriver) (fsrpc.Attr, fsrpc.Status) { return d.lookup("d/f", "ho", true) })
			wb, ws := p.wire.read("ho", 0, len(payload))
			db, ds := p.direct.read("ho", 0, len(payload))
			if ws != ds || !bytes.Equal(wb, db) || !bytes.Equal(wb, payload) {
				t.Fatalf("read divergence: wire(%v,%d bytes) direct(%v,%d bytes)", ws, len(wb), ds, len(db))
			}
			we, wst := p.wire.readdir("d")
			de, dst := p.direct.readdir("d")
			if wst != dst || fmt.Sprint(we) != fmt.Sprint(de) {
				t.Fatalf("readdir divergence: wire(%v,%v) direct(%v,%v)", wst, we, dst, de)
			}
			p.both(t, "rename d/f d/g", func(d confDriver) fsrpc.Status { return d.rename("d/f", "d/g") })
			p.bothAttr(t, "getattr gone d/f", func(d confDriver) (fsrpc.Attr, fsrpc.Status) { return d.getattr("d/f") })
			p.both(t, "unlink missing", func(d confDriver) fsrpc.Status { return d.unlink("d/nope") })
			p.both(t, "unlink dir", func(d confDriver) fsrpc.Status { return d.unlink("d") })
			p.both(t, "rmdir non-empty", func(d confDriver) fsrpc.Status { return d.rmdir("d") })
			p.both(t, "unlink d/g", func(d confDriver) fsrpc.Status { return d.unlink("d/g") })
			p.both(t, "rmdir d", func(d confDriver) fsrpc.Status { return d.rmdir("d") })

			// Write death: EIO must surface identically, then both mounts
			// latch read-only and every mutation maps to EROFS.
			p.wireF.FailWritesNow()
			p.dirF.FailWritesNow()
			sawRofs := false
			for i := 0; i < 8 && !sawRofs; i++ {
				hk := fmt.Sprintf("dead%d", i)
				st := p.both(t, hk+" create", func(d confDriver) (s fsrpc.Status) {
					_, s = d.create(hk, hk)
					return s
				})
				if st == fsrpc.StatusReadOnly {
					sawRofs = true
					break
				}
				if st != fsrpc.StatusOK {
					continue
				}
				p.both(t, hk+" write", func(d confDriver) fsrpc.Status {
					_, s := d.write(hk, 0, payload)
					return s
				})
				p.both(t, hk+" fsync", func(d confDriver) fsrpc.Status { return d.fsync(hk) })
			}
			if w, d := p.wire.degraded(), p.direct.degraded(); !w || !d {
				t.Fatalf("degradation divergence after write death: wire=%v direct=%v", w, d)
			}
			if st := p.both(t, "create on dead mount", func(d confDriver) (s fsrpc.Status) {
				_, s = d.create("late", "late")
				return s
			}); st != fsrpc.StatusReadOnly {
				t.Fatalf("create after latch = %v on both sides, want EROFS", st)
			}
			if !sawRofs {
				// The loop above must have seen the latch flip via EROFS at
				// least on its last create; the explicit check above proves
				// the sticky state either way.
				t.Log("latch tripped only after the storm loop; EROFS verified post-loop")
			}
		})
	}
}

// TestWireConformanceNoSpace fills a tiny device through both drivers
// until it runs out, requiring the ENOSPC surfacing op and status to be
// identical over the wire and direct.
func TestWireConformanceNoSpace(t *testing.T) {
	for _, name := range []string{"ext4", "betrfs-v0.6"} {
		t.Run(name, func(t *testing.T) {
			const scale = 8192 // ≈ 32 MiB device
			p := buildPair(t, name, scale)
			p.both(t, "mkdir fill", func(d confDriver) fsrpc.Status { return d.mkdir("fill") })
			payload := bytes.Repeat([]byte{0xdb}, 128<<10)
			var terminal fsrpc.Status
			for i := 0; i < 512; i++ {
				hk := fmt.Sprintf("f%04d", i)
				st := p.both(t, hk+" create", func(d confDriver) (s fsrpc.Status) {
					_, s = d.create("fill/"+hk, hk)
					return s
				})
				if st != fsrpc.StatusOK {
					terminal = st
					break
				}
				if st = p.both(t, hk+" write", func(d confDriver) fsrpc.Status {
					_, s := d.write(hk, 0, payload)
					return s
				}); st != fsrpc.StatusOK {
					terminal = st
					break
				}
				if st = p.both(t, hk+" fsync", func(d confDriver) fsrpc.Status { return d.fsync(hk) }); st != fsrpc.StatusOK {
					terminal = st
					break
				}
			}
			if terminal != fsrpc.StatusNoSpace {
				t.Fatalf("device fill terminated with %v on both sides, want ENOSPC", terminal)
			}
		})
	}
}
