// Command fsshell is an interactive shell over any of the simulated file
// systems — handy for poking at behaviour and watching simulated time and
// device I/O respond to individual operations.
//
//	$ go run ./cmd/fsshell -fs betrfs-v0.6
//	> mkdir a
//	> write a/hello.txt hello world
//	> ls a
//	> cat a/hello.txt
//	> stats
//
// With -connect host:port the shell instead drives a remote fsserved
// process over the fsrpc wire protocol (see cmd/fsserved). -window bounds
// how many requests the client keeps in flight, and the remote-only
// `pipe` command issues a burst of pipelined calls to show out-of-order
// completion on the shared connection.
//
// With -shards N the shell stands up an in-process prefix-routed
// deployment (DESIGN.md §14) and drives it through the control plane's
// routing client; `shardmap`, `shares`, and `stats` inspect the
// topology and the per-shard metrics.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"betrfs/internal/bench"
	"betrfs/internal/fsrpc"
	"betrfs/internal/systems"
	"betrfs/internal/vfs"
)

func main() {
	fsName := flag.String("fs", "betrfs-v0.6", "file system: "+strings.Join(systems.Names(), ", "))
	connect := flag.String("connect", "", "host:port of an fsserved to drive over the wire instead of mounting in-process")
	window := flag.Int("window", fsrpc.DefaultWindow, "with -connect: max requests in flight on the connection (1 = serialized)")
	shards := flag.Int("shards", 0, "stand up an in-process N-shard prefix-routed deployment (DESIGN.md §14) and drive it through the control plane")
	flag.Parse()
	if _, err := systems.Lookup(*fsName); err != nil {
		fmt.Fprintln(os.Stderr, "fsshell: -fs:", err)
		os.Exit(2)
	}

	if *connect != "" {
		runRemote(*connect, *window)
		return
	}
	if *shards > 0 {
		runShards(*shards)
		return
	}

	in := bench.Build(*fsName, 64)
	m := in.Mount
	fmt.Printf("mounted %s on a simulated SSD; type 'help'\n", *fsName)

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 0 {
			if !execute(in, m, fields) {
				return
			}
		}
		fmt.Print("> ")
	}
}

func execute(in *bench.Instance, m *vfs.Mount, f []string) bool {
	switch f[0] {
	case "help":
		fmt.Println("commands: ls [dir] | mkdir p | write p text... | cat p | rm p | rmr p | mv a b | stat p | sync | dropcaches | stats | time | quit")
	case "quit", "exit":
		return false
	case "ls":
		dir := ""
		if len(f) > 1 {
			dir = f[1]
		}
		ents, err := m.ReadDir(dir)
		if err != nil {
			fmt.Println("ls:", err)
			break
		}
		for _, e := range ents {
			kind := "-"
			if e.Dir {
				kind = "d"
			}
			fmt.Printf("%s %s\n", kind, e.Name)
		}
	case "mkdir":
		if len(f) < 2 {
			break
		}
		if err := m.MkdirAll(f[1]); err != nil {
			fmt.Println("mkdir:", err)
		}
	case "write":
		if len(f) < 3 {
			break
		}
		file, err := m.Create(f[1])
		if err != nil {
			fmt.Println("write:", err)
			break
		}
		file.Write([]byte(strings.Join(f[2:], " ")))
		file.Close()
	case "cat":
		if len(f) < 2 {
			break
		}
		file, err := m.Open(f[1])
		if err != nil {
			fmt.Println("cat:", err)
			break
		}
		buf := make([]byte, 64<<10)
		n, _ := file.ReadAt(buf, 0)
		fmt.Println(string(buf[:n]))
	case "rm":
		if len(f) < 2 {
			break
		}
		if err := m.Remove(f[1]); err != nil {
			fmt.Println("rm:", err)
		}
	case "rmr":
		if len(f) < 2 {
			break
		}
		if err := m.RemoveAll(f[1]); err != nil {
			fmt.Println("rmr:", err)
		}
	case "mv":
		if len(f) < 3 {
			break
		}
		if err := m.Rename(f[1], f[2]); err != nil {
			fmt.Println("mv:", err)
		}
	case "stat":
		if len(f) < 2 {
			break
		}
		a, err := m.Stat(f[1])
		if err != nil {
			fmt.Println("stat:", err)
			break
		}
		fmt.Printf("dir=%v size=%d nlink=%d mtime=%v\n", a.Dir, a.Size, a.Nlink, a.Mtime)
	case "sync":
		m.Sync()
	case "dropcaches":
		m.DropCaches()
	case "time":
		fmt.Println("simulated time:", in.Env.Now())
	case "stats":
		d := in.Dev.Stats()
		fmt.Printf("device: %d reads (%d KiB), %d writes (%d KiB), %d flushes\n",
			d.Reads, d.BytesRead>>10, d.Writes, d.BytesWritten>>10, d.Flushes)
		v := m.Stats()
		fmt.Printf("vfs: lookups=%d dcacheHits=%d pagesRead=%d pagesWritten=%d fsyncs=%d\n",
			v.Lookups, v.DcacheHits, v.PagesRead, v.PagesWritten, v.Fsyncs)
		printRegistry(in)
	default:
		fmt.Println("unknown command; try 'help'")
	}
	return true
}

// printRegistry dumps every non-zero counter and histogram the mounted
// stack has registered (the full metrics registry, sorted by name).
func printRegistry(in *bench.Instance) {
	snap := in.Env.Metrics.Snapshot()
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("counters:")
	for _, name := range names {
		if v := snap.Counters[name]; v != 0 {
			fmt.Printf("  %-28s %12d\n", name, v)
		}
	}
	if len(snap.Histograms) == 0 {
		return
	}
	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("histograms:")
	for _, name := range names {
		h := snap.Histograms[name]
		if h.Count == 0 {
			continue
		}
		fmt.Printf("  %-28s count=%d sum=%d max=%d (%s)\n", name, h.Count, h.Sum, h.Max, h.Unit)
	}
}
