// Command fsshell is an interactive shell over any of the simulated file
// systems, e.g. `printf 'write a/x hi\ncat a/x\nstats\n' | fsshell`.
//
// Every mode drives the file system through the fsrpc wire client, so the
// file commands (see `help`) are the same in each. By default the shell
// mounts -fs in-process and serves it to itself through fsserve over a
// pipe. With -connect host:port it drives a remote fsserved (-window
// bounds the requests in flight; `pipe` bursts pipelined calls). With
// -shards N it stands up an in-process prefix-routed deployment (DESIGN.md
// §14) and drives it through the control plane's routing client.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"betrfs/internal/bench"
	"betrfs/internal/controlplane"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/metrics"
	"betrfs/internal/systems"
)

// scale divides the paper's hardware sizes in the in-process modes.
const scale = 64

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

	var sh *shell
	switch {
	case *connect != "":
		var err error
		sh, err = remoteShell(os.Stdout, *connect, func() (io.ReadWriteCloser, error) { return net.Dial("tcp", *connect) }, *window)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsshell: connect:", err)
			os.Exit(1)
		}
	case *shards > 0:
		fmt.Fprintf(os.Stderr, "fsshell: building %d-shard deployment (scale 1/%d)...\n", *shards, scale)
		sh = shardShell(os.Stdout, *shards)
	default:
		sh = localShell(os.Stdout, *fsName)
	}
	defer sh.close()
	sh.run(os.Stdin)
}

// localShell mounts fsName in-process and serves it to the shell through
// fsserve over net.Pipe, as the serve rung does.
func localShell(out io.Writer, fsName string) *shell {
	in := bench.Build(fsName, scale)
	srv := fsserve.New(in.Env, in.Mount, fsserve.DefaultConfig())
	cliEnd, srvEnd := net.Pipe()
	go srv.ServeConn(srvEnd)
	cli := fsrpc.NewClientOpts(cliEnd, fsrpc.Options{Metrics: in.Env.Metrics})
	fmt.Fprintf(out, "mounted %s on a simulated SSD; type 'help'\n", fsName)
	return &shell{
		cli:  cli,
		wire: func(string) *fsrpc.Client { return cli },
		out:  out,
		cmds: map[string]command{
			"sync":       {"", func([]string) error { return in.Mount.Sync() }},
			"dropcaches": {"", func([]string) error { in.Mount.DropCaches(); return nil }},
			"stats":      {"", func([]string) error { printSnapshot(out, in.Env.Metrics.Snapshot()); return nil }},
		},
		close: func() { cli.Close(); srv.Shutdown() },
	}
}

// remoteShell drives the fsserved that dial reaches. On a dropped
// connection the client redials and resumes its session, handles included,
// and in-flight calls replay exactly once (DESIGN.md §13.9).
func remoteShell(out io.Writer, addr string, dial func() (io.ReadWriteCloser, error), window int) (*shell, error) {
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	cli := fsrpc.NewClientOpts(conn, fsrpc.Options{Window: window, Metrics: reg})
	err = cli.EnableRedial(dial, fsrpc.RedialPolicy{OnReconnect: func(attempts int, resumed bool) {
		what := "session resumed"
		if !resumed {
			what = "session lease had expired — handles lost, fresh session started"
		}
		fmt.Fprintf(os.Stderr, "fsshell: reconnected to %s after %d attempt(s); %s\n", addr, attempts, what)
	}})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsshell: session handshake failed (%v); continuing without auto-reconnect\n", err)
	}
	fmt.Fprintf(out, "connected to fsserved at %s (window %d); type 'help'\n", addr, cli.Window())
	return &shell{
		cli:  cli,
		wire: func(string) *fsrpc.Client { return cli },
		out:  out,
		cmds: map[string]command{
			"ping": {"", func([]string) error {
				start := time.Now()
				err := cli.Ping()
				if err == nil {
					fmt.Fprintf(out, "pong in %v (lease renewed)\n", time.Since(start))
				}
				return err
			}},
			"attach": {"name", func(a []string) error {
				err := cli.Attach(a[0])
				if err == nil {
					fmt.Fprintf(out, "attached to mount share %s\n", a[0])
				}
				return err
			}},
			"shares": {"", func([]string) error { return printShares(out, "", cli) }},
			"stats": {"", func([]string) error {
				// The client's own redial, replay and deadline counters (§13.7).
				if token, lease := cli.Session(); token != "" {
					fmt.Fprintf(out, "session: %s (lease %v)\n", token, lease)
				}
				printSnapshot(out, reg.Snapshot())
				return nil
			}},
		},
		close: func() { cli.Close() },
	}, nil
}

// printShares lists a front end's share table (DESIGN.md §14.2): mount
// shares are directories, block shares files.
func printShares(out io.Writer, prefix string, cli *fsrpc.Client) error {
	ents, err := cli.Shares()
	if err != nil {
		return err
	}
	for _, e := range ents {
		kind := "block"
		if e.Dir {
			kind = "mount"
		}
		fmt.Fprintf(out, "%s%s (%s)\n", prefix, e.Name, kind)
	}
	return nil
}

// shardShell drives an in-process deployment of n shard pairs, each a file
// node over a block share on its own storage node (DESIGN.md §14.4).
func shardShell(out io.Writer, n int) *shell {
	d := controlplane.New(controlplane.Config{Shards: n, Scale: scale})
	cli := d.Connect(metrics.NewRegistry())
	fmt.Fprintf(out, "%d shards of %s mounted behind a prefix-routing client; type 'help'\n", n, controlplane.FileSystem)
	return &shell{
		cli:  cli,
		wire: func(p string) *fsrpc.Client { return cli.Shard(cli.Route(p)) },
		out:  out,
		cmds: map[string]command{
			"route": {"p", func(a []string) error {
				fmt.Fprintf(out, "%s -> shard %d\n", a[0], cli.Route(a[0]))
				return nil
			}},
			"shardmap": {"", func([]string) error {
				routes := cli.Map().Routes()
				fmt.Fprintf(out, "%d shards, %d routes (longest prefix wins):\n", n, len(routes))
				for _, r := range routes {
					prefix := r.Prefix
					if prefix == "" {
						prefix = "(catch-all)"
					}
					fmt.Fprintf(out, "  %-20s -> shard %d\n", prefix, r.Shard)
				}
				return nil
			}},
			"shares": {"", func([]string) error {
				// Each front end answers over the wire; its storage node's
				// block share is one hop behind it.
				for i := 0; i < n; i++ {
					if err := printShares(out, fmt.Sprintf("shard %d: ", i), cli.Shard(i)); err != nil {
						return err
					}
					fmt.Fprintf(out, "shard %d: %s (block, storage node)\n", i, controlplane.BlockShare)
				}
				return nil
			}},
			"stats":      {"[shard [fs|blk0]]", func(a []string) error { return shardStats(out, d, a) }},
			"dropcaches": {"", func([]string) error { d.DropCaches(); return nil }},
		},
		close: func() { cli.Close(); d.Close() },
	}
}

// shardStats prints the deployment roll-up, one shard's two machines
// merged, or the one machine hosting a named share of that shard.
func shardStats(out io.Writer, d *controlplane.Deployment, a []string) error {
	snap, scope := d.Snapshot(), fmt.Sprintf("deployment roll-up (%d shards)", len(d.Shards))
	if len(a) > 0 {
		i, err := strconv.Atoi(a[0])
		if err != nil || i < 0 || i >= len(d.Shards) {
			return fmt.Errorf("no shard %q", a[0])
		}
		switch arg(a, 1) {
		case "":
			snap, scope = d.ShardSnapshot(i), fmt.Sprintf("shard %d (file node + storage node)", i)
		case controlplane.MountShare:
			snap, scope = d.Shards[i].FileEnv.Metrics.Snapshot(), fmt.Sprintf("shard %d, share %s (file node)", i, a[1])
		case controlplane.BlockShare:
			snap, scope = d.Shards[i].StorageEnv.Metrics.Snapshot(), fmt.Sprintf("shard %d, share %s (storage node)", i, a[1])
		default:
			return fmt.Errorf("no share %q (try %s or %s)", a[1], controlplane.MountShare, controlplane.BlockShare)
		}
	}
	fmt.Fprintln(out, scope+":")
	printSnapshot(out, snap)
	return nil
}
