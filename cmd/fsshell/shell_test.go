package main

import (
	"io"
	"net"
	"regexp"
	"strings"
	"testing"

	"betrfs/internal/bench"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
)

// script exercises every file command the modes share. s01 is the second
// shard's prefix under -shards 2 and a plain directory elsewhere.
const script = `mkdir a/b
write a/b/x hello world
write a/y second file
mkdir s01/d
write s01/d/f on shard one
ls a
ls s01/d
cat a/b/x
cat s01/d/f
stat a/b/x
stat a
mv a/y a/z
ls a
rm a/z
cat a/z
rm nope
pipe 3 s01/d/f
pipe 2000000000
rmr a
rmr s01
ls a
ls s01
stat a/b/x
time
quit
`

// want is what the script prints, command by command, once the clock
// values are masked.
var want = []string{
	"", "", "", "", "",
	"d b\n- y\n",
	"- f\n",
	"hello world\n",
	"on shard one\n",
	"dir=false size=11 nlink=1 mtime=T\n",
	"dir=true size=0 nlink=3 mtime=T\n",
	"",
	"- z\nd b\n",
	"",
	"cat: vfs: no such file or directory\n",
	"rm: vfs: no such file or directory\n",
	"pipe: 3 GETATTR \"s01/d/f\" in T (window 32, worst call T, errors 0)\ncompletion order: O\n",
	"pipe: 2000000000 calls is more than the limit of 4096\n",
	"", "",
	"ls: vfs: no such file or directory\n",
	"ls: vfs: no such file or directory\n",
	"stat: vfs: no such file or directory\n",
	"simulated time: T\n",
	"", // quit
}

var (
	clockRE = regexp.MustCompile(`(mtime=| in |worst call |simulated time: )[0-9.]+[µmn]?s`)
	orderRE = regexp.MustCompile(`completion order: \[[0-9 ]*\]`)
)

// remoteOverPipe serves an in-process betrfs-v0.6 through fsserve and
// opens the remote mode on it, dialling over net.Pipe.
func remoteOverPipe(t *testing.T, out io.Writer) *shell {
	in := bench.Build("betrfs-v0.6", scale)
	srv := fsserve.New(in.Env, in.Mount, fsserve.DefaultConfig())
	dial := func() (io.ReadWriteCloser, error) {
		cliEnd, srvEnd := net.Pipe()
		go srv.ServeConn(srvEnd)
		return cliEnd, nil
	}
	sh, err := remoteShell(out, "pipe", dial, fsrpc.DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	closeCli := sh.close
	sh.close = func() { closeCli(); srv.Shutdown() }
	return sh
}

// TestOneScriptEveryMode runs the same script through the in-process
// mode, the remote mode and a two-shard deployment, and requires the same
// output from each.
func TestOneScriptEveryMode(t *testing.T) {
	modes := []struct {
		name string
		open func(out io.Writer) *shell
	}{
		{"local", func(out io.Writer) *shell { return localShell(out, "betrfs-v0.6") }},
		{"remote", func(out io.Writer) *shell { return remoteOverPipe(t, out) }},
		{"shards", func(out io.Writer) *shell { return shardShell(out, 2) }},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			var out strings.Builder
			sh := m.open(&out)
			sh.run(strings.NewReader(script))
			sh.close()
			// Each prompt precedes one command's output; the first chunk
			// is the banner.
			got := strings.Split(out.String(), "> ")[1:]
			if len(got) != len(want) {
				t.Fatalf("%d replies, want %d:\n%s", len(got), len(want), out.String())
			}
			for i, g := range got {
				g = orderRE.ReplaceAllString(clockRE.ReplaceAllString(g, "${1}T"), "completion order: O")
				if g != want[i] {
					t.Errorf("command %d (%s): got %q, want %q", i, strings.Split(script, "\n")[i], g, want[i])
				}
			}
		})
	}
}

// TestModeCommands runs each mode's own commands once.
func TestModeCommands(t *testing.T) {
	for _, c := range []struct {
		open   func(out io.Writer) *shell
		script string
		want   []string
	}{
		{func(out io.Writer) *shell { return localShell(out, "ext4") },
			"write x hi\nsync\ndropcaches\nstats\nhelp\n",
			[]string{"  blockdev.flush.count", "gauges:\n", "  blockdev.chunk.bytes", "  vfs.write.ns", "| dropcaches | stats | sync | quit"}},
		{func(out io.Writer) *shell { return remoteOverPipe(t, out) },
			"ping\nshares\nattach nope\nstats\nhelp\n",
			[]string{"pong in ", "attach: vfs: no such file", "session: s", "| attach name | ping | shares | stats | quit"}},
		{func(out io.Writer) *shell { return shardShell(out, 2) },
			"route s01/x\nshardmap\nshares\nstats 1 blk0\nstats 2\ndropcaches\nhelp\n",
			[]string{"s01/x -> shard 1\n", "  (catch-all)", "shard 1: fs (mount)\nshard 1: blk0 (block, storage node)\n",
				"shard 1, share blk0 (storage node):\ncounters:\n", "stats: no shard \"2\"\n", "| dropcaches | route p | shardmap | shares | stats [shard [fs|blk0]] | quit"}},
	} {
		var out strings.Builder
		sh := c.open(&out)
		sh.run(strings.NewReader(c.script))
		sh.close()
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("output lacks %q:\n%s", w, out.String())
			}
		}
		if strings.Contains(out.String(), "unknown command") {
			t.Errorf("unknown command:\n%s", out.String())
		}
	}
}
