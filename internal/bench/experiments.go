package bench

import (
	"betrfs/internal/metrics"
	"betrfs/internal/workload"
)

// MicroParams sizes the Table 1/3 microbenchmarks; Scaled() derives them
// from the paper's sizes.
type MicroParams struct {
	SeqBytes  int64
	SeqChunk  int
	RandFile  int64
	RandCount int
	TokuFiles int
	TreeSpec  workload.TreeSpec
}

// Scaled returns the paper's microbenchmark parameters divided by scale.
func Scaled(scale int64) MicroParams {
	// The random-write benchmark scales less aggressively than the
	// byte-heavy ones so the 10% written-block density and the
	// exceeds-the-node-cache regime of the paper's 10 GiB / 256 Ki-write
	// configuration survive scaling.
	randScale := scale / 8
	if randScale < 1 {
		randScale = 1
	}
	p := MicroParams{
		SeqBytes:  (80 << 30) / scale,
		SeqChunk:  1 << 20,
		RandFile:  (10 << 30) / randScale,
		RandCount: int((256 << 10) / randScale),
		TokuFiles: int(3_000_000 / scale),
		TreeSpec:  workload.LinuxTree(int(scale / 8)),
	}
	if p.RandCount < 256 {
		p.RandCount = 256
	}
	if p.TokuFiles < 1000 {
		p.TokuFiles = 1000
	}
	return p
}

// MicroResults holds one system's Table 3 row.
type MicroResults struct {
	System    string
	SeqRead   float64 // MB/s
	SeqWrite  float64 // MB/s
	Rand4K    float64 // MB/s
	Rand4B    float64 // MB/s
	TokuBench float64 // kop/s
	Grep      float64 // s
	Rm        float64 // s
	Find      float64 // s
}

// RunMicroCollect runs the full Table 3 row for one system and returns
// it with the system's metric counters, merged across the fresh instances
// the individual benchmarks run on. Each benchmark runs on a fresh
// instance, as the artifact's scripts do (each Build gets its own sim.Env
// and registry).
func RunMicroCollect(system string, scale int64) (MicroResults, metrics.Snapshot) {
	p := Scaled(scale)
	out := MicroResults{System: system}
	var snap metrics.Snapshot
	run := fresh(system, scale, &snap)
	run(func(in *Instance) { // sequential write then cold re-read
		w := workload.SequentialWrite(in.Env, in.Mount, p.SeqBytes, p.SeqChunk)
		out.SeqWrite = w.MBps()
		out.SeqRead = workload.SequentialRead(in.Env, in.Mount, p.SeqChunk).MBps()
	})
	run(func(in *Instance) {
		out.Rand4K = workload.RandomWrite(in.Env, in.Mount, p.RandFile, p.RandCount, 4096).MBps()
	})
	run(func(in *Instance) {
		out.Rand4B = workload.RandomWrite(in.Env, in.Mount, p.RandFile, p.RandCount, 4).MBps()
	})
	run(func(in *Instance) {
		out.TokuBench = workload.TokuBench(in.Env, in.Mount, p.TokuFiles).KOpsPerSec()
	})
	run(func(in *Instance) { // grep and find share a populated tree
		p.TreeSpec.Populate(in.Mount, "linux")
		out.Grep = workload.Grep(in.Env, in.Mount, "linux").Seconds()
		out.Find = workload.Find(in.Env, in.Mount, "linux").Seconds()
	})
	run(func(in *Instance) { out.Rm = rmTwoTrees(in, p) })
	return out, snap
}

// fresh returns a runner that hands each benchmark a freshly built
// instance, as the artifact's scripts do, and merges the instance's
// metrics into snap afterwards.
func fresh(system string, scale int64, snap *metrics.Snapshot) func(func(*Instance)) {
	return func(bench func(*Instance)) {
		in := Build(system, scale)
		bench(in)
		snap.Merge(in.Env.Metrics.Snapshot())
	}
}

// rmTwoTrees populates two copies of the tree and times their rm -rf. The
// recursive-delete pathology needs the deletion's message volume to
// exceed Bε-tree node buffers (the paper's 94k-file deletion does), so
// this experiment scales its tree less aggressively than the others.
func rmTwoTrees(in *Instance, p MicroParams) float64 {
	rmSpec := p.TreeSpec
	rmSpec.FilesPerDir *= 4
	rmSpec.SubDirs *= 2
	rmSpec.MeanFile /= 8
	rmSpec.Populate(in.Mount, "copy1")
	rmSpec.Populate(in.Mount, "copy2")
	r1 := workload.RecursiveDelete(in.Env, in.Mount, "copy1")
	r2 := workload.RecursiveDelete(in.Env, in.Mount, "copy2")
	return r1.Seconds() + r2.Seconds()
}

// AppResults holds one system's Figure 2 values.
type AppResults struct {
	System       string
	Tar          float64 // s (unpack)
	Untar        float64 // s (pack)
	GitClone     float64 // s
	GitDiff      float64 // s
	Rsync        float64 // MB/s
	RsyncInPlace float64 // MB/s
	Dovecot      float64 // op/s
	OLTP         float64 // kop/s
	Fileserver   float64 // kop/s
	Webserver    float64 // kop/s
	Webproxy     float64 // kop/s
}

// RunAppsCollect runs the Figure 2 application benchmarks for one system
// and returns them with the system's metric counters, merged across the
// per-benchmark instances.
func RunAppsCollect(system string, scale int64) (AppResults, metrics.Snapshot) {
	p := Scaled(scale)
	out := AppResults{System: system}
	var snap metrics.Snapshot
	run := fresh(system, scale, &snap)
	run(func(in *Instance) { // tar: build an archive image, unpack it, then repack the tree
		var total int64
		p.TreeSpec.Paths(func(_ string, dir bool, size int) {
			if !dir {
				total += int64(size)
			}
		})
		af, err := in.Mount.Create("linux.tar")
		if err != nil {
			panic(err)
		}
		buf := make([]byte, 1<<20)
		for w := int64(0); w < total; w += int64(len(buf)) {
			af.Write(buf)
		}
		af.Close()
		in.Mount.Sync()
		out.Tar = workload.TarUnpack(in.Env, in.Mount, p.TreeSpec, "linux.tar", "untarred").Seconds()
		out.Untar = workload.TarPack(in.Env, in.Mount, "untarred", "repacked.tar").Seconds()
	})
	run(func(in *Instance) {
		p.TreeSpec.Populate(in.Mount, "repo")
		out.GitClone = workload.GitClone(in.Env, in.Mount, "repo", "clone").Seconds()
		out.GitDiff = workload.GitDiff(in.Env, in.Mount, "repo").Seconds()
	})
	for _, inPlace := range []bool{false, true} {
		run(func(in *Instance) {
			p.TreeSpec.Populate(in.Mount, "srctree")
			in.Mount.MkdirAll("dst")
			r := workload.Rsync(in.Env, in.Mount, "srctree", "dst", inPlace).MBps()
			if inPlace {
				out.RsyncInPlace = r
			} else {
				out.Rsync = r
			}
		})
	}
	run(func(in *Instance) {
		msgs := int(2500 / (scale / 8))
		if msgs < 100 {
			msgs = 100
		}
		ops := int(80_000 / scale * 8)
		out.Dovecot = workload.MailServer(in.Env, in.Mount, 10, msgs, ops).KOpsPerSec() * 1000
	})
	fb := workload.FilebenchSpec{Files: 800, MeanFile: 16 << 10, Ops: 6000, Seed: 5}
	run(func(in *Instance) { out.OLTP = workload.OLTP(in.Env, in.Mount, fb).KOpsPerSec() })
	run(func(in *Instance) { out.Fileserver = workload.Fileserver(in.Env, in.Mount, fb).KOpsPerSec() })
	run(func(in *Instance) { out.Webserver = workload.Webserver(in.Env, in.Mount, fb).KOpsPerSec() })
	run(func(in *Instance) { out.Webproxy = workload.Webproxy(in.Env, in.Mount, fb).KOpsPerSec() })
	return out, snap
}

// RunMicroRmOnly runs just the recursive-delete experiment (tools/tests).
func RunMicroRmOnly(system string, scale int64) float64 {
	return rmTwoTrees(Build(system, scale), Scaled(scale))
}
