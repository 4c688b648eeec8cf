package controlplane

import (
	"fmt"
	"net"

	"betrfs/internal/betrfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/blockstore/readcache"
	"betrfs/internal/blockstore/remote"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/ftl"
	"betrfs/internal/kmem"
	"betrfs/internal/metrics"
	"betrfs/internal/registry"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// Config sizes a deployment.
type Config struct {
	// Shards is the number of shards (≥ 1). Each shard is a file node
	// plus a storage node.
	Shards int
	// Scale divides the device and workload sizes, like bench.Build.
	// Default 256.
	Scale int64
	// Routes overrides the shard map; nil uses DefaultRoutes(Shards).
	Routes []Route
}

// Shard is one shard of a deployment: a storage node exporting its
// FTL-backed device as the block share "blk0", and a file node mounting
// BetrFS v0.6 over that share through a read cache, served behind its
// own fsserve front end as the mount share "fs".
//
// Each node is its own simulated machine (sim.Env): the block share's
// I/O charges the storage node's clock, the file system's CPU and cache
// work charge the file node's, and the wire between them is an
// in-process pipe.
type Shard struct {
	Index int
	// StorageEnv / FileEnv are the two machines.
	StorageEnv *sim.Env
	FileEnv    *sim.Env
	// Dev is the storage node's raw device (fault injection and image
	// comparison poke it directly); FTL is the translation layer the
	// block share serves through.
	Dev *blockdev.Dev
	FTL *ftl.Dev
	// Mount is the file node's mount. Conformance tests drive it
	// directly and diff against the wire path.
	Mount *vfs.Mount

	front      *fsserve.Server // serves Mount to control-plane clients
	storage    *fsserve.Server // serves the block share to the file node
	storageCli *fsrpc.Client   // the file node's connection to storage
}

// Deployment is a prefix-routed set of shards.
type Deployment struct {
	Map    *ShardMap
	Shards []*Shard
	cfg    Config
}

// New builds the deployment: per shard, a storage node (device → FTL →
// fsserve with a block-share registry) and a file node (remote device
// over a pipe to the storage node → read cache → BetrFS v0.6 → fsserve
// front end). Deterministic: every machine is a fresh single-worker
// sim.Env and nothing runs until a client drives it.
func New(cfg Config) *Deployment {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 256
	}
	routes := cfg.Routes
	if routes == nil {
		routes = DefaultRoutes(cfg.Shards)
	}
	d := &Deployment{Map: NewShardMap(cfg.Shards, routes), cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		d.Shards = append(d.Shards, buildShard(i, cfg))
	}
	return d
}

// BlockShare is the name every storage node exports its device under,
// and MountShare the name every file node exports its mount under.
const (
	BlockShare = "blk0"
	MountShare = "fs"
)

func buildShard(i int, cfg Config) *Shard {
	// Storage node: device → FTL, exported as a block share by a
	// mount-less server.
	senv := sim.NewEnv(1)
	dev := blockdev.New(senv, blockdev.SamsungEVO860().Scale(cfg.Scale))
	fdev := ftl.New(senv, dev, ftl.DefaultConfig())
	sreg := registry.New()
	sreg.AddDevice(BlockShare, senv, fdev)
	scfg := fsserve.DefaultConfig()
	scfg.Registry = sreg
	storage := fsserve.New(senv, nil, scfg)

	// File node: dial the storage node, mount BetrFS v0.6 over the
	// remote share through a read cache.
	fenv := sim.NewEnv(1)
	cliEnd, srvEnd := net.Pipe()
	go storage.ServeConn(srvEnd)
	scli := fsrpc.NewClientOpts(cliEnd, fsrpc.Options{Metrics: fenv.Metrics})
	rdev, err := remote.Open(fenv, scli, BlockShare)
	if err != nil {
		panic(fmt.Sprintf("controlplane: shard %d: %v", i, err))
	}

	bcfg := betrfs.V06Config()
	ramBytes := (32 << 30) / cfg.Scale
	bcfg.Tree.CacheBytes = ramBytes / 2
	backend, err := sfl.NewDefault(fenv, readcache.New(fenv, rdev))
	if err != nil {
		panic(err)
	}
	fs, err := betrfs.New(fenv, kmem.New(fenv, bcfg.CooperativeMem), bcfg, backend)
	if err != nil {
		panic(err)
	}
	vcfg := vfs.DefaultConfig()
	vcfg.CacheBytes = ramBytes / 2
	mount := vfs.NewMount(fenv, fs, vcfg)

	freg := registry.New()
	freg.AddMount(MountShare, fenv, mount)
	fcfg := fsserve.DefaultConfig()
	fcfg.Registry = freg
	front := fsserve.New(fenv, mount, fcfg)

	return &Shard{
		Index:      i,
		StorageEnv: senv,
		FileEnv:    fenv,
		Dev:        dev,
		FTL:        fdev,
		Mount:      mount,
		front:      front,
		storage:    storage,
		storageCli: scli,
	}
}

// Dial connects one wire client to shard i's front end over a fresh
// in-process pipe.
func (d *Deployment) Dial(i int, opts fsrpc.Options) *fsrpc.Client {
	cliEnd, srvEnd := net.Pipe()
	go d.Shards[i].front.ServeConn(srvEnd)
	return fsrpc.NewClientOpts(cliEnd, opts)
}

// Connect returns a prefix-routing client over the whole deployment,
// one connection per shard. Client metrics land in reg (nil for none).
func (d *Deployment) Connect(reg *metrics.Registry) *Client {
	shards := make([]*fsrpc.Client, len(d.Shards))
	for i := range d.Shards {
		shards[i] = d.Dial(i, fsrpc.Options{Metrics: reg})
	}
	return &Client{m: d.Map, shards: shards}
}

// ShardSnapshot merges shard i's two machines into one snapshot: the
// file node's metrics (betrfs, readcache, the front fsserve) plus the
// storage node's (ftl, blockdev, the block-share fsserve).
func (d *Deployment) ShardSnapshot(i int) metrics.Snapshot {
	sh := d.Shards[i]
	var snap metrics.Snapshot
	snap.Merge(sh.FileEnv.Metrics.Snapshot())
	snap.Merge(sh.StorageEnv.Metrics.Snapshot())
	return snap
}

// Snapshot rolls every shard's snapshot into one deployment-wide view
// (counters sum, histograms merge — metrics.Snapshot.Merge semantics).
func (d *Deployment) Snapshot() metrics.Snapshot {
	var snap metrics.Snapshot
	for i := range d.Shards {
		snap.Merge(d.ShardSnapshot(i))
	}
	return snap
}

// DropCaches writes back and empties every shard file node's page and
// node caches (vfs.Mount.DropCaches), so subsequent reads go to the
// block layer. The shard bench uses it between its write and read
// phases: the cold re-reads then exercise the read cache in front of
// the remote device instead of being absorbed by the file node's RAM.
func (d *Deployment) DropCaches() {
	for _, sh := range d.Shards {
		sh.Mount.DropCaches()
	}
}

// Quiesce blocks until every server in the deployment has finished the
// reply-side accounting of every admitted request, so a snapshot taken
// afterwards is stable (fsserve.Server.Quiesce). Call it with the
// drivers idle — after the workload, before ShardSnapshot/Snapshot.
func (d *Deployment) Quiesce() {
	for _, sh := range d.Shards {
		sh.front.Quiesce()
		sh.storage.Quiesce()
	}
}

// Close shuts the deployment down: front ends first (draining client
// requests), then each file node's storage connection, then the storage
// servers.
func (d *Deployment) Close() {
	for _, sh := range d.Shards {
		sh.front.Shutdown()
	}
	for _, sh := range d.Shards {
		sh.storageCli.Close()
		sh.storage.Shutdown()
	}
}
