package controlplane

import (
	"errors"
	"fmt"

	"betrfs/internal/fsrpc"
)

// ErrCrossShard reports an operation spanning two shards, which the
// control plane does not coordinate (no distributed transactions): a
// RENAME whose source and destination route differently fails with it.
var ErrCrossShard = errors.New("controlplane: operation crosses shards")

// shardShift packs the owning shard into the top byte of a wire handle,
// so handle-bearing calls route without re-resolving the path. fsserve
// handles are small sequence numbers; 2^56 of them per session is
// unreachable.
const shardShift = 56

// Client multiplexes one wire client per shard behind the single-mount
// client surface: path-bearing calls route by the shard map,
// handle-bearing calls by the shard tag in the handle, and STATFS
// aggregates every shard. It is an fsrpc.FileClient, so the bench
// scripts and fsshell drive it exactly as they drive *fsrpc.Client.
type Client struct {
	m      *ShardMap
	shards []*fsrpc.Client
}

var _ fsrpc.FileClient = (*Client)(nil)

// Shard exposes the underlying per-shard client (fsshell uses it for
// shard-targeted commands).
func (c *Client) Shard(i int) *fsrpc.Client { return c.shards[i] }

// Route returns the shard index owning path.
func (c *Client) Route(path string) int { return c.m.Route(path) }

// Map returns the client's shard map.
func (c *Client) Map() *ShardMap { return c.m }

func (c *Client) byPath(path string) (*fsrpc.Client, uint64) {
	i := c.m.Route(path)
	return c.shards[i], uint64(i) << shardShift
}

func (c *Client) byHandle(h uint64) (*fsrpc.Client, uint64, error) {
	i := int(h >> shardShift)
	if i >= len(c.shards) {
		return nil, 0, fsrpc.ErrBadHandle
	}
	return c.shards[i], h & (uint64(1)<<shardShift - 1), nil
}

func (c *Client) Lookup(path string, open bool) (uint64, fsrpc.Attr, error) {
	cli, tag := c.byPath(path)
	h, a, err := cli.Lookup(path, open)
	if err != nil || h == 0 {
		return h, a, err
	}
	return h | tag, a, nil
}

func (c *Client) Getattr(path string) (fsrpc.Attr, error) {
	cli, _ := c.byPath(path)
	return cli.Getattr(path)
}

func (c *Client) Create(path string) (uint64, fsrpc.Attr, error) {
	cli, tag := c.byPath(path)
	h, a, err := cli.Create(path)
	if err != nil {
		return h, a, err
	}
	return h | tag, a, nil
}

func (c *Client) Read(handle uint64, off int64, n int) ([]byte, error) {
	cli, h, err := c.byHandle(handle)
	if err != nil {
		return nil, err
	}
	return cli.Read(h, off, n)
}

func (c *Client) Write(handle uint64, off int64, data []byte) (int, error) {
	cli, h, err := c.byHandle(handle)
	if err != nil {
		return 0, err
	}
	return cli.Write(h, off, data)
}

func (c *Client) Fsync(handle uint64) error {
	cli, h, err := c.byHandle(handle)
	if err != nil {
		return err
	}
	return cli.Fsync(h)
}

func (c *Client) Mkdir(path string) error {
	cli, _ := c.byPath(path)
	return cli.Mkdir(path)
}

func (c *Client) Unlink(path string) error {
	cli, _ := c.byPath(path)
	return cli.Unlink(path)
}

func (c *Client) Rmdir(path string) error {
	cli, _ := c.byPath(path)
	return cli.Rmdir(path)
}

// Rename renames within one shard; a source and destination owned by
// different shards fail with ErrCrossShard (the namespace is
// partitioned, not replicated — a cross-shard rename would need a copy
// the control plane deliberately does not hide).
func (c *Client) Rename(oldPath, newPath string) error {
	from, to := c.m.Route(oldPath), c.m.Route(newPath)
	if from != to {
		return fmt.Errorf("%w: rename %q (shard %d) -> %q (shard %d)",
			ErrCrossShard, oldPath, from, newPath, to)
	}
	return c.shards[from].Rename(oldPath, newPath)
}

func (c *Client) Readdir(path string) ([]fsrpc.DirEnt, error) {
	cli, _ := c.byPath(path)
	return cli.Readdir(path)
}

// Statfs aggregates the deployment: sessions and ops served sum across
// shards, degraded is the OR (one degraded shard degrades the service),
// and the simulated time is the furthest shard clock.
func (c *Client) Statfs() (fsrpc.Statfs, error) {
	var out fsrpc.Statfs
	for i, cli := range c.shards {
		sf, err := cli.Statfs()
		if err != nil {
			return out, fmt.Errorf("shard %d: %w", i, err)
		}
		if i == 0 {
			out.BlockSize = sf.BlockSize
		}
		out.Sessions += sf.Sessions
		out.OpsServed += sf.OpsServed
		if sf.SimTimeNs > out.SimTimeNs {
			out.SimTimeNs = sf.SimTimeNs
		}
		out.Degraded = out.Degraded || sf.Degraded
	}
	return out, nil
}

// Close closes every shard connection, returning the first error.
func (c *Client) Close() error {
	var first error
	for _, cli := range c.shards {
		if err := cli.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
