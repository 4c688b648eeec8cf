package main

import "time"

// sizing fixes every workload's size. The full sizing is part of the
// benchmark's definition and is not a flag: each value is a ratio of the
// scaled machine in stack.go, and those ratios are what put a workload in
// its regime. README.md gives the reason for each.
type sizing struct {
	// seq_io and rand_io: one file 5x either 32 MiB cache and 6.7x the
	// 24 MiB device write cache.
	fileBytes int64
	chunk     int64 // mean sequential call size, 1 MiB
	// rand_io, per 4 KiB block of the file: 0.8 aligned overwrites, 3.2
	// unaligned 4-byte writes, 0.1 cold reads, dealt out over randRounds
	// rounds of writes then reads (simwork.go says why).
	overwrites int
	patches    int
	randReads  int
	randRounds int
	// tree_ops: files of 200 B on average (150 to 250) in a fanout-128
	// tree; their creation logs 1.5x the 4 MiB log region.
	treeFiles int
	// serve_mix, per client: a 20 x 100 x 4 KiB tree (16 MiB over both
	// clients, inside both caches), warm-up ops, measured ops (whose
	// creates, with the tree's, log 2 MB: inside the 4 MiB log region).
	serveDirs, serveFiles int
	serveWarm, serveOps   int
	// driverTime is how long each layer driver is timed for.
	driverTime time.Duration
}

const (
	serveClients = 2
	treeFanout   = 128
	treeFileSize = 200
)

// sizingFor returns the full sizing, or the smoke one.
func sizingFor(smoke bool) sizing {
	if smoke {
		return smokeSizing()
	}
	return fullSizing()
}

func fullSizing() sizing {
	blocks := int(5 * cacheBytes / pageSize)
	return sizing{
		fileBytes:  5 * cacheBytes,
		chunk:      1 << 20,
		overwrites: blocks * 8 / 10,
		patches:    blocks * 32 / 10,
		randReads:  blocks / 10,
		randRounds: 32,
		treeFiles:  20000,
		serveDirs:  20, serveFiles: 100,
		serveWarm: 2000, serveOps: 20000,
		driverTime: time.Second,
	}
}

// smokeSizing is 1/16 of everything: it exercises every code path of the
// benchmark in about a second and reaches none of the regimes.
func smokeSizing() sizing {
	s := fullSizing()
	s.fileBytes /= 16
	s.overwrites /= 16
	s.patches /= 16
	s.randReads /= 16
	s.randRounds /= 16
	s.treeFiles /= 16
	s.serveFiles /= 4
	s.serveDirs /= 4
	s.serveWarm /= 16
	s.serveOps /= 16
	s.driverTime /= 64
	return s
}
