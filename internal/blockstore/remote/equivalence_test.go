package remote_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/blockstore/remote"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/ioerr"
	"betrfs/internal/registry"
	"betrfs/internal/sim"
)

// serveDevice exports dev as the block share "blk0" behind a mount-less
// server and returns the remote device a client on its own machine opens
// over the wire.
func serveDevice(t *testing.T, env *sim.Env, dev blockdev.Device) (*remote.Dev, func()) {
	t.Helper()
	reg := registry.New()
	reg.AddDevice("blk0", env, dev)
	cfg := fsserve.DefaultConfig()
	cfg.Registry = reg
	srv := fsserve.New(env, nil, cfg)
	cliEnd, srvEnd := net.Pipe()
	go srv.ServeConn(srvEnd)
	cli := fsrpc.NewClient(cliEnd)
	rdev, err := remote.Open(sim.NewEnv(1), cli, "blk0")
	if err != nil {
		t.Fatalf("open remote device: %v", err)
	}
	return rdev, func() { cli.Close(); srv.Shutdown() }
}

// TestRemoteLocalEquivalence applies one seeded op sequence to a local
// device and to an identical device behind the wire, then requires the
// two device images to be byte-identical: the remote device must be
// indistinguishable from the local one at the media level.
func TestRemoteLocalEquivalence(t *testing.T) {
	const scale = 2048 // small device so the full-image diff is cheap
	envL := sim.NewEnv(1)
	devL := blockdev.New(envL, blockdev.SamsungEVO860().Scale(scale))

	envR := sim.NewEnv(1)
	devR := blockdev.New(envR, blockdev.SamsungEVO860().Scale(scale))
	rdev, shutdown := serveDevice(t, envR, devR)
	defer shutdown()

	if rdev.Size() != devL.Size() {
		t.Fatalf("size over the wire = %d, local %d", rdev.Size(), devL.Size())
	}

	// One seeded sequence of block-aligned writes, discards, flushes, and
	// verifying reads, applied to both devices in lockstep, half of the
	// transfers through Submit*/Wait. Includes a multi-chunk transfer
	// (> MaxData) to cover the wire chunking path.
	rng := rand.New(rand.NewSource(42))
	size := devL.Size()
	blocks := size / blockdev.BlockSize
	apply := func(op func(d blockdev.Device) error) {
		t.Helper()
		errL := op(devL)
		errR := op(rdev)
		if (errL == nil) != (errR == nil) {
			t.Fatalf("local/remote diverged: local=%v remote=%v", errL, errR)
		}
	}
	for i := 0; i < 200; i++ {
		off := (rng.Int63n(blocks - 80)) * blockdev.BlockSize
		switch rng.Intn(5) {
		case 0, 1: // write 1–8 blocks of op-dependent bytes
			n := (1 + rng.Intn(8)) * blockdev.BlockSize
			payload := bytes.Repeat([]byte{byte(i)}, n)
			if i%2 == 0 {
				apply(func(d blockdev.Device) error { return d.WriteAt(payload, off) })
			} else {
				apply(func(d blockdev.Device) error { return d.Wait(d.SubmitWrite(payload, off)) })
			}
		case 2: // discard 1–16 blocks
			n := int64(1+rng.Intn(16)) * blockdev.BlockSize
			apply(func(d blockdev.Device) error { return d.Discard(off, n) })
		case 3:
			apply(func(d blockdev.Device) error { return d.Flush() })
		case 4: // verifying read
			n := (1 + rng.Intn(4)) * blockdev.BlockSize
			bl, br := make([]byte, n), make([]byte, n)
			if err := devL.ReadAt(bl, off); err != nil {
				t.Fatalf("local read: %v", err)
			}
			read := rdev.ReadAt
			if i%2 == 1 {
				read = func(p []byte, off int64) error { return rdev.Wait(rdev.SubmitRead(p, off)) }
			}
			if err := read(br, off); err != nil {
				t.Fatalf("remote read: %v", err)
			}
			if !bytes.Equal(bl, br) {
				t.Fatalf("op %d: read divergence at %d", i, off)
			}
		}
	}
	// A transfer larger than one wire frame's data cap must chunk
	// transparently.
	big := bytes.Repeat([]byte{0xcd}, fsrpc.MaxData+3*blockdev.BlockSize)
	apply(func(d blockdev.Device) error { return d.WriteAt(big, 0) })
	got := make([]byte, len(big))
	if err := rdev.ReadAt(got, 0); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("multi-chunk read back: %v", err)
	}

	// Byte-identical device images.
	if devL.Stats().BytesDiscarded != devR.Stats().BytesDiscarded {
		t.Fatalf("TRIM ledgers diverged: local %d, remote %d",
			devL.Stats().BytesDiscarded, devR.Stats().BytesDiscarded)
	}
	const chunk = 1 << 20
	bl, br := make([]byte, chunk), make([]byte, chunk)
	for off := int64(0); off < size; off += chunk {
		n := chunk
		if size-off < chunk {
			n = int(size - off)
		}
		if err := devL.ReadAt(bl[:n], off); err != nil {
			t.Fatal(err)
		}
		if err := devR.ReadAt(br[:n], off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bl[:n], br[:n]) {
			t.Fatalf("device images diverge in [%d, %d)", off, off+int64(n))
		}
	}
}

// TestRemoteErrorSurfacing requires device errors to classify
// identically through the wire: EIO from an unreadable range and ENOSPC
// from a full backend reach the remote caller as the same sentinels a
// local caller sees.
func TestRemoteErrorSurfacing(t *testing.T) {
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(2048))
	// A grown defect: reads overlapping it fail permanently with EIO.
	faulted := blockdev.NewFault(env, dev, blockdev.FaultPlan{
		BadSectors: []blockdev.Range{{Off: 0, Len: blockdev.BlockSize}},
	})
	rdev, shutdown := serveDevice(t, env, faulted)
	defer shutdown()

	buf := make([]byte, blockdev.BlockSize)
	errLocal := faulted.ReadAt(buf, 0)
	errRemote := rdev.ReadAt(buf, 0)
	if !errors.Is(errLocal, ioerr.ErrIO) {
		t.Fatalf("local faulted read = %v, want EIO", errLocal)
	}
	if !errors.Is(errRemote, ioerr.ErrIO) {
		t.Fatalf("remote faulted read = %v, want EIO", errRemote)
	}
	if fsrpc.StatusOf(errRemote) != fsrpc.StatusOf(errLocal) {
		t.Fatalf("status drift: local %v, remote %v",
			fsrpc.StatusOf(errLocal), fsrpc.StatusOf(errRemote))
	}

	env2 := sim.NewEnv(1)
	dev2 := blockdev.New(env2, blockdev.SamsungEVO860().Scale(2048))
	full := nospace{dev2}
	rdev2, shutdown2 := serveDevice(t, env2, full)
	defer shutdown2()
	errLocal = full.WriteAt(buf, 0)
	errRemote = rdev2.WriteAt(buf, 0)
	if !errors.Is(errLocal, ioerr.ErrNoSpace) || !errors.Is(errRemote, ioerr.ErrNoSpace) {
		t.Fatalf("ENOSPC drift: local=%v remote=%v", errLocal, errRemote)
	}
}

type nospace struct{ blockdev.Device }

func (nospace) WriteAt(p []byte, off int64) error {
	return fmt.Errorf("backend full: %w", ioerr.ErrNoSpace)
}
