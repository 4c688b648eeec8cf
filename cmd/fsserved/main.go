// Command fsserved exports one or more simulated file systems over TCP
// via the fsrpc wire protocol, serving any number of concurrent client
// connections with the bounded-queue admission control fsserve provides.
//
//	$ go run ./cmd/fsserved -addr :9000 -fs betrfs-v0.6 -workers 4
//	$ go run ./cmd/fsshell -connect localhost:9000
//
// The primary mount is always exported as the mount share "fs"
// (DESIGN.md §14.2). -shares exports additional named mounts a client
// can ATTACH to, and -block-shares exports named FTL-backed devices a
// client (typically another node's file system) can BOPEN and use as a
// remote block store:
//
//	$ go run ./cmd/fsserved -shares scratch=ext4 -block-shares blk0,blk1
//
// SIGINT/SIGTERM drain gracefully: new requests are rejected with
// ESHUTDOWN, in-flight requests complete and their replies are delivered,
// then the process exits.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"betrfs/internal/bench"
	"betrfs/internal/blockdev"
	"betrfs/internal/blockstore/local"
	"betrfs/internal/fsserve"
	"betrfs/internal/ftl"
	"betrfs/internal/registry"
)

func main() {
	def := fsserve.DefaultConfig()
	addr := flag.String("addr", "127.0.0.1:9000", "TCP listen address")
	fsName := flag.String("fs", "betrfs-v0.6", "file system: "+strings.Join(bench.Systems, ", "))
	scale := flag.Int64("scale", bench.DefaultScale, "divide paper hardware sizes by this factor")
	workers := flag.Int("workers", 2, "request worker goroutines (1 = serialized execution)")
	queue := flag.Int("queue", def.QueueDepth, "admission queue depth; a full queue sheds requests with EBUSY")
	queueWait := flag.Duration("queue-wait", 0, "max time a request may wait queued before being shed (0 = no deadline)")
	maxHandles := flag.Int("max-handles", def.MaxHandles, "per-session open-handle cap (oldest evicted beyond it)")
	sessionLease := flag.Duration("session-lease", 2*time.Minute, "how long a disconnected named session (HELLO, DESIGN.md §13.9) survives without traffic before its handles close (0 = never expire)")
	drcEntries := flag.Int("drc-entries", def.DRCEntries, "per-session duplicate-reply cache entries; must exceed the client window or slow replays are refused with ERETIRED")
	shares := flag.String("shares", "", "extra mount shares, comma-separated name=system pairs (clients ATTACH by name; the primary mount is always exported as \"fs\")")
	blockShares := flag.String("block-shares", "", "block shares, comma-separated names; each exports a fresh FTL-backed device at -scale (clients BOPEN by name)")
	flag.Parse()

	var in *bench.Instance
	if *workers > 1 {
		in = bench.BuildConcurrent(*fsName, *scale, *workers)
	} else {
		in = bench.Build(*fsName, *scale)
	}
	reg := buildRegistry(in, *scale, *shares, *blockShares)
	cfg := fsserve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		QueueWait:    *queueWait,
		MaxHandles:   *maxHandles,
		SessionLease: *sessionLease,
		DRCEntries:   *drcEntries,
		Registry:     reg,
	}
	srv := fsserve.New(in.Env, in.Mount, cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsserved:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "fsserved: %s mounted (scale 1/%d), listening on %s (%d workers, queue %d, lease %v, drc %d)\n",
		*fsName, *scale, ln.Addr(), cfg.Workers, cfg.QueueDepth, cfg.SessionLease, cfg.DRCEntries)
	for _, sh := range reg.Shares() {
		if sh.Mount {
			fmt.Fprintf(os.Stderr, "fsserved: share %s (mount)\n", sh.Name)
		} else {
			fmt.Fprintf(os.Stderr, "fsserved: share %s (block, %d MiB)\n", sh.Name, sh.Size>>20)
		}
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		fmt.Fprintln(os.Stderr, "fsserved: draining...")
		ln.Close()
		srv.Shutdown()
		fmt.Fprintln(os.Stderr, "fsserved: drained, exiting")
		os.Exit(0)
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			// Listener closed by the drain path; wait for it to finish.
			time.Sleep(time.Second)
			return
		}
		go func(c net.Conn) {
			if err := srv.ServeConn(c); err != nil {
				fmt.Fprintf(os.Stderr, "fsserved: %s: %v\n", c.RemoteAddr(), err)
			}
		}(conn)
	}
}

// buildRegistry assembles the daemon's share table (DESIGN.md §14.2):
// the primary mount as "fs", one extra mount per -shares name=system
// pair (each its own simulated stack at the daemon's scale), and one
// fresh FTL-backed device per -block-shares name. Block-share devices
// live on the daemon's machine, so their I/O charges its clock and
// their counters land in its registry.
func buildRegistry(in *bench.Instance, scale int64, shares, blockShares string) *registry.Registry {
	reg := registry.New()
	reg.AddMount("fs", in.Env, in.Mount)
	if shares != "" {
		for _, pair := range strings.Split(shares, ",") {
			name, system, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || name == "" || system == "" {
				fmt.Fprintf(os.Stderr, "fsserved: -shares: %q is not name=system\n", pair)
				os.Exit(2)
			}
			extra := bench.Build(system, scale)
			reg.AddMount(name, extra.Env, extra.Mount)
		}
	}
	if blockShares != "" {
		for _, name := range strings.Split(blockShares, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				fmt.Fprintln(os.Stderr, "fsserved: -block-shares: empty share name")
				os.Exit(2)
			}
			dev := blockdev.New(in.Env, blockdev.SamsungEVO860().Scale(scale))
			reg.AddStore(name, in.Env, local.New(ftl.New(in.Env, dev, ftl.DefaultConfig())))
		}
	}
	return reg
}
