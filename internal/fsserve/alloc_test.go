package fsserve_test

import (
	"fmt"
	"testing"

	"betrfs/internal/bench"
	"betrfs/internal/fsserve"
)

// TestServedCallAllocs bounds the host allocations of one synchronous wire
// call, client and server together in one process over net.Pipe: the
// client's call, the request and reply codecs on both sides, the session's
// reply path and the mount work behind it. A served call recycles its Call,
// Request and Reply, so what is left is the result the caller keeps (READ's
// data, READDIR's entries and their one name string) and the mount's own
// work. A listing of 100 entries allocates per listing, not per entry,
// except for the handles of entries read back from the tree.
func TestServedCallAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops pooled calls and buffers at random")
	}
	in := bench.Build("betrfs-v0.6", 256)
	srv := fsserve.New(in.Env, in.Mount, fsserve.DefaultConfig())
	defer srv.Shutdown()
	cli := dial(t, srv)

	if err := cli.Mkdir("d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := cli.Create(fmt.Sprintf("d/f%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	h, _, err := cli.Lookup("d/f000", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write(h, 0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}

	readdir100 := func() error {
		ents, err := cli.Readdir("d")
		if err == nil && len(ents) != 100 {
			err = fmt.Errorf("readdir: %d entries, want 100", len(ents))
		}
		return err
	}
	for _, c := range []struct {
		name   string
		max    float64
		before func() error
		call   func() error
	}{
		{"getattr", 2, nil, func() error { _, err := cli.Getattr("d/f000"); return err }},
		{"read", 2, nil, func() error { _, err := cli.Read(h, 0, 4096); return err }},
		{"lookup-open", 4, nil, func() error { _, _, err := cli.Lookup("d/f001", true); return err }},
		{"readdir-100", 16, nil, readdir100},
		// Once a sync puts the creates in the tree, each entry's handle is
		// its path boxed in a vfs.Handle: one allocation per entry more.
		{"readdir-100-synced", 16 + 100, in.Mount.Sync, readdir100},
	} {
		if c.before != nil {
			if err := c.before(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		var callErr error
		got := testing.AllocsPerRun(200, func() {
			if err := c.call(); err != nil && callErr == nil {
				callErr = err
			}
		})
		if callErr != nil {
			t.Fatalf("%s: %v", c.name, callErr)
		}
		t.Logf("%s: %.1f allocs per call (bound %.0f)", c.name, got, c.max)
		if got > c.max {
			t.Errorf("%s: %.1f allocs per call, want at most %.0f", c.name, got, c.max)
		}
	}
}
