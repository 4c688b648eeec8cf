package systems

import (
	"errors"
	"net"
	"strings"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// TestLongNamesAreRefused: a name longer than NAME_MAX, or a path longer
// than PATH_MAX, is refused with ENAMETOOLONG on every system, directly
// and over the wire, and leaves the namespace readable. Before the mount
// refused it, BetrFS logged and stored a 70 000-byte key behind a 16-bit
// length, and after a sync and a cache drop neither the root's listing nor
// a stat could be read back.
func TestLongNamesAreRefused(t *testing.T) {
	long := strings.Repeat("n", 70000)
	longest := strings.Repeat("m", vfs.NameMax)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s := lookup(t, name)
			env := sim.NewEnv(1)
			st, err := s.New(env, blockdev.New(env, s.Device().Scale(256)), s.Testbed(256))
			if err != nil {
				t.Fatal(err)
			}
			m := st.Mount
			if err := m.Mkdir("d"); err != nil {
				t.Fatal(err)
			}
			f, err := m.Create(longest)
			if err != nil {
				t.Fatalf("create of a %d-byte name: %v", len(longest), err)
			}
			f.Close()
			refused := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, vfs.ErrNameTooLong) {
					t.Errorf("%s: %v, want ErrNameTooLong", what, err)
				}
			}
			_, err = m.Create(long)
			refused("create", err)
			_, err = m.Create("d/" + longest + "x")
			refused("create of NAME_MAX+1 bytes", err)
			refused("mkdir", m.Mkdir(long))
			refused("rename", m.Rename(longest, "d/"+long))
			_, err = m.Create(strings.Repeat("d/", vfs.PathMax/2) + "x")
			refused("create past PATH_MAX", err)

			srv := fsserve.New(env, m, fsserve.DefaultConfig())
			defer srv.Shutdown()
			cliEnd, srvEnd := net.Pipe()
			go srv.ServeConn(srvEnd)
			cli := fsrpc.NewClient(cliEnd)
			defer cli.Close()
			// A wire string holds 65 535 bytes: the client refuses a longer
			// one itself, and the server the rest.
			if _, _, err := cli.Create(long); !errors.Is(err, fsrpc.ErrProto) {
				t.Errorf("create of %d bytes over the wire: %v, want ErrProto", len(long), err)
			}
			_, _, err = cli.Create(long[:60000])
			refused("create over the wire", err)
			refused("mkdir over the wire", cli.Mkdir("d/"+long[:vfs.NameMax+1]))
			refused("rename over the wire", cli.Rename(longest, long[:60000]))

			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			m.DropCaches()
			if _, err := m.Stat("d"); err != nil {
				t.Fatalf("stat after sync and drop: %v", err)
			}
			ents, err := cli.Readdir("")
			if err != nil {
				t.Fatalf("root listing after sync and drop: %v", err)
			}
			got := map[string]bool{}
			for _, e := range ents {
				got[e.Name] = true
			}
			if len(ents) != 2 || !got["d"] || !got[longest] {
				t.Fatalf("root lists %d entries, want d and the %d-byte name", len(ents), len(longest))
			}
		})
	}
}
