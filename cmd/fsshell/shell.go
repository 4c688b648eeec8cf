package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strconv"
	"strings"
	"time"

	"betrfs/internal/fsrpc"
	"betrfs/internal/metrics"
	"betrfs/internal/vfs"
)

// shell is the one command interpreter every mode runs. The file commands
// go through the wire-client surface, which the in-process, remote and
// shard modes all provide; a mode adds only its own commands.
type shell struct {
	cli   fsrpc.FileClient
	wire  func(p string) *fsrpc.Client // the connection p's requests travel on
	out   io.Writer
	cmds  map[string]command // the mode's own commands
	close func()
}

// command is one mode-specific command: its argument synopsis for help,
// and its body.
type command struct {
	synopsis string
	run      func(args []string) error
}

// fileHelp lists the commands every mode has.
const fileHelp = "ls [dir] | mkdir p | write p text... | cat p | stat p | mv a b | rm p | rmdir p | rmr p | fsync p | statfs | time | pipe [n] [path]"

// needArgs is how many arguments a command needs; given fewer, it does
// nothing.
var needArgs = map[string]int{
	"mkdir": 1, "write": 2, "cat": 1, "stat": 1, "mv": 2, "rm": 1, "rmdir": 1,
	"rmr": 1, "fsync": 1, "attach": 1, "route": 1,
}

// maxPipe bounds a pipe burst: each call holds a goroutine, and running
// out of memory is a fatal error that no recover catches.
const maxPipe = 4096

// run reads commands from in, one per line, until quit or end of input.
func (sh *shell) run(in io.Reader) {
	sc := bufio.NewScanner(in)
	fmt.Fprint(sh.out, "> ")
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) > 0 && !sh.exec(f[0], f[1:]) {
			return
		}
		fmt.Fprint(sh.out, "> ")
	}
}

// exec runs one command and reports whether the shell goes on.
func (sh *shell) exec(cmd string, a []string) bool {
	if len(a) < needArgs[cmd] {
		return true
	}
	var err error
	switch cmd {
	case "help":
		usage := []string{fileHelp}
		for _, name := range sortedKeys(sh.cmds) {
			usage = append(usage, strings.TrimSpace(name+" "+sh.cmds[name].synopsis))
		}
		fmt.Fprintf(sh.out, "commands: %s | quit\n", strings.Join(usage, " | "))
	case "quit", "exit":
		return false
	case "ls":
		var ents []fsrpc.DirEnt
		if ents, err = sh.cli.Readdir(arg(a, 0)); err == nil {
			for _, e := range ents {
				kind := "-"
				if e.Dir {
					kind = "d"
				}
				fmt.Fprintf(sh.out, "%s %s\n", kind, e.Name)
			}
		}
	case "mkdir":
		err = mkdirAll(sh.cli, a[0])
	case "write":
		var h uint64
		if h, _, err = sh.cli.Create(a[0]); err == nil {
			_, err = sh.cli.Write(h, 0, []byte(strings.Join(a[1:], " ")))
		}
	case "cat":
		var data []byte
		if data, err = readAll(sh.cli, a[0]); err == nil {
			fmt.Fprintln(sh.out, string(data))
		}
	case "stat":
		var at fsrpc.Attr
		if at, err = sh.cli.Getattr(a[0]); err == nil {
			fmt.Fprintf(sh.out, "dir=%v size=%d nlink=%d mtime=%v\n", at.Dir, at.Size, at.Nlink, time.Duration(at.Mtime))
		}
	case "mv":
		err = sh.cli.Rename(a[0], a[1])
	case "rm":
		err = sh.cli.Unlink(a[0])
	case "rmdir":
		err = sh.cli.Rmdir(a[0])
	case "rmr":
		err = removeAll(sh.cli, a[0])
	case "fsync":
		var h uint64
		if h, _, err = sh.cli.Lookup(a[0], true); err == nil {
			err = sh.cli.Fsync(h)
		}
	case "statfs", "time":
		var sf fsrpc.Statfs
		if sf, err = sh.cli.Statfs(); err == nil && cmd == "time" {
			fmt.Fprintln(sh.out, "simulated time:", time.Duration(sf.SimTimeNs))
		} else if err == nil {
			fmt.Fprintf(sh.out, "block=%d simtime=%v degraded=%v sessions=%d ops=%d\n",
				sf.BlockSize, time.Duration(sf.SimTimeNs), sf.Degraded, sf.Sessions, sf.OpsServed)
		}
	case "pipe":
		n, perr := strconv.Atoi(arg(a, 0))
		if perr != nil || n < 1 {
			n = 16
		}
		if n > maxPipe {
			err = fmt.Errorf("%d calls is more than the limit of %d", n, maxPipe)
			break
		}
		pipeBurst(sh.out, sh.wire(arg(a, 1)), n, arg(a, 1))
	default:
		if c, ok := sh.cmds[cmd]; ok {
			err = c.run(a)
		} else {
			fmt.Fprintln(sh.out, "unknown command; try 'help'")
		}
	}
	if err != nil {
		fmt.Fprintf(sh.out, "%s: %v\n", cmd, err)
	}
	return true
}

// arg returns a[i], or "" when there are fewer arguments.
func arg(a []string, i int) string {
	if i < len(a) {
		return a[i]
	}
	return ""
}

// mkdirAll creates each missing component of p (MKDIR is not recursive).
func mkdirAll(cli fsrpc.FileClient, p string) error {
	parts := strings.Split(strings.Trim(p, "/"), "/")
	for i := range parts {
		if err := cli.Mkdir(strings.Join(parts[:i+1], "/")); err != nil && !errors.Is(err, vfs.ErrExist) {
			return err
		}
	}
	return nil
}

// readAll reads the whole file at p in MaxData-sized calls.
func readAll(cli fsrpc.FileClient, p string) ([]byte, error) {
	h, attr, err := cli.Lookup(p, true)
	if err != nil {
		return nil, err
	}
	if attr.Dir {
		return nil, vfs.ErrIsDir
	}
	var out []byte
	for int64(len(out)) < attr.Size {
		chunk, err := cli.Read(h, int64(len(out)), int(min(attr.Size-int64(len(out)), fsrpc.MaxData)))
		if err != nil || len(chunk) == 0 {
			return out, err
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// removeAll deletes p and everything under it; like rm -rf, it ignores a
// missing p.
func removeAll(cli fsrpc.FileClient, p string) error {
	attr, err := cli.Getattr(p)
	switch {
	case errors.Is(err, vfs.ErrNotExist):
		return nil
	case err != nil:
		return err
	case !attr.Dir:
		return cli.Unlink(p)
	}
	ents, err := cli.Readdir(p)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := removeAll(cli, path.Join(p, e.Name)); err != nil {
			return err
		}
	}
	return cli.Rmdir(p)
}

// printSnapshot prints snap's nonzero counters and histograms, sorted by
// name. Every mode's stats command prints through it.
func printSnapshot(w io.Writer, snap metrics.Snapshot) {
	fmt.Fprintln(w, "counters:")
	for _, name := range sortedKeys(snap.Counters) {
		if v := snap.Counters[name]; v != 0 {
			fmt.Fprintf(w, "  %-28s %12d\n", name, v)
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, name := range sortedKeys(snap.Gauges) {
			if v := snap.Gauges[name]; v != 0 {
				fmt.Fprintf(w, "  %-28s %12d\n", name, v)
			}
		}
	}
	if len(snap.Histograms) == 0 {
		return
	}
	fmt.Fprintln(w, "histograms:")
	for _, name := range sortedKeys(snap.Histograms) {
		if h := snap.Histograms[name]; h.Count != 0 {
			fmt.Fprintf(w, "  %-28s count=%d sum=%d max=%d (%s)\n", name, h.Count, h.Sum, h.Max, h.Unit)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// pipeBurst issues n GETATTR requests back to back without waiting for
// replies — as many as the client window admits at once — then collects
// the completions in whatever order the server produced them. With
// -window 1 the issue loop serializes and the completion order is the
// issue order; with a wide window the burst pipelines on the one
// connection and read-class replies may return out of order.
func pipeBurst(w io.Writer, cli *fsrpc.Client, n int, p string) {
	start := time.Now()
	calls := make([]*fsrpc.Call, n)
	lat := make([]time.Duration, n)
	done := make(chan int, n)
	for i := range calls {
		// Go blocks only while the window is full; a goroutine per call
		// harvests completions so the issue loop keeps it full.
		calls[i] = cli.Go(context.Background(), &fsrpc.Request{Op: fsrpc.OpGetattr, Path: p})
		issued := time.Now()
		go func() { <-calls[i].Done(); lat[i] = time.Since(issued); done <- i }()
	}
	order := make([]int, n)
	var worst time.Duration
	errs := 0
	for k := range order {
		i := <-done
		order[k], worst = i, max(worst, lat[i])
		if calls[i].Err != nil {
			errs++
		}
	}
	fmt.Fprintf(w, "pipe: %d GETATTR %q in %v (window %d, worst call %v, errors %d)\n",
		n, p, time.Since(start), cli.Window(), worst, errs)
	fmt.Fprintf(w, "completion order: %v\n", order)
}
