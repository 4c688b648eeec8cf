// Benchmark harness entry points: one testing.B benchmark per table and
// figure of the paper, plus the ablations DESIGN.md calls out. Each
// benchmark runs the scaled workload inside the simulator and reports the
// *simulated* metric (sim_MB/s, sim_kop/s, or sim_seconds) via
// b.ReportMetric — wall-clock ns/op only measures the host, so the
// simulated metrics are the ones that correspond to the paper's numbers.
//
// Run everything:   go test -bench=. -benchmem
// One table:        go test -bench=BenchmarkTable3
// Full CLI harness: go run ./cmd/betrbench -table 1
package betrfs_test

import (
	"fmt"
	"testing"

	"betrfs/internal/bench"
	"betrfs/internal/betree"
	"betrfs/internal/blockdev"
	"betrfs/internal/kmem"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
	"betrfs/internal/systems"
	"betrfs/internal/workload"
)

// benchScale trades fidelity for speed in the testing.B harness so that
// `go test -bench=.` completes in minutes; the CLI harness
// (cmd/betrbench) runs the full-fidelity scale 64 used by EXPERIMENTS.md.
const benchScale = 256

// BenchmarkTable1 reproduces Table 1: every file system on the eight
// microbenchmarks.
func BenchmarkTable1(b *testing.B) {
	for _, system := range systems.Table1 {
		system := system
		b.Run(system, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, _ := bench.RunMicroCollect(system, benchScale)
				b.ReportMetric(r.SeqRead, "seqread_MB/s")
				b.ReportMetric(r.SeqWrite, "seqwrite_MB/s")
				b.ReportMetric(r.Rand4K, "rand4K_MB/s")
				b.ReportMetric(r.Rand4B, "rand4B_MB/s")
				b.ReportMetric(r.TokuBench, "tokubench_kop/s")
				b.ReportMetric(r.Grep, "grep_s")
				b.ReportMetric(r.Rm, "rm_s")
				b.ReportMetric(r.Find, "find_s")
			}
		})
	}
}

// BenchmarkTable3 reproduces Table 3: the cumulative optimization ladder
// from BetrFS v0.4 to v0.6, one rung per sub-benchmark.
func BenchmarkTable3(b *testing.B) {
	for _, system := range systems.Ladder {
		system := system
		b.Run(system, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, _ := bench.RunMicroCollect(system, benchScale)
				b.ReportMetric(r.SeqWrite, "seqwrite_MB/s")
				b.ReportMetric(r.Rand4K, "rand4K_MB/s")
				b.ReportMetric(r.TokuBench, "tokubench_kop/s")
				b.ReportMetric(r.Rm, "rm_s")
			}
		})
	}
}

// BenchmarkFigure2 reproduces the application benchmarks (Figures 2a–2h)
// for the headline systems.
func BenchmarkFigure2(b *testing.B) {
	for _, system := range []string{"ext4", "zfs", "betrfs-v0.4", "betrfs-v0.6"} {
		system := system
		b.Run(system, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, _ := bench.RunAppsCollect(system, benchScale)
				b.ReportMetric(r.Tar, "tar_s")
				b.ReportMetric(r.Untar, "untar_s")
				b.ReportMetric(r.GitClone, "gitclone_s")
				b.ReportMetric(r.GitDiff, "gitdiff_s")
				b.ReportMetric(r.Rsync, "rsync_MB/s")
				b.ReportMetric(r.RsyncInPlace, "rsyncip_MB/s")
				b.ReportMetric(r.Dovecot, "dovecot_op/s")
				b.ReportMetric(r.OLTP, "oltp_kop/s")
				b.ReportMetric(r.Fileserver, "fileserver_kop/s")
				b.ReportMetric(r.Webserver, "webserver_kop/s")
				b.ReportMetric(r.Webproxy, "webproxy_kop/s")
			}
		})
	}
}

// --- ablations (DESIGN.md §5) -------------------------------------------------

func buildTree(b *testing.B, mutate func(*betree.Config)) (*sim.Env, *betree.Store) {
	b.Helper()
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	cfg := betree.DefaultConfig()
	cfg.CacheBytes = 256 << 20
	if mutate != nil {
		mutate(&cfg)
	}
	backend, err := sfl.NewDefault(env, dev)
	if err != nil {
		b.Fatal(err)
	}
	s, err := betree.Open(env, kmem.New(env, true), cfg, backend)
	if err != nil {
		b.Fatal(err)
	}
	return env, s
}

// BenchmarkAblationPacman isolates the §4 range-message optimizations: a
// recursive delete on two configurations that differ only in RG — the
// directory-wide range deletes that let PacMan gobble the adjacent
// per-file deletes, the nlink-based emptiness checks, and the redundant
// message removal. The rungs are betrfs+SFL (RG off) and betrfs+RG.
func BenchmarkAblationPacman(b *testing.B) {
	spec := workload.LinuxTree(16)
	for _, system := range []string{"betrfs+SFL", "betrfs+RG"} {
		system := system
		b.Run(system, func(b *testing.B) {
			var elapsed float64
			for i := 0; i < b.N; i++ {
				in := bench.Build(system, benchScale)
				spec.Populate(in.Mount, "tree")
				r := workload.RecursiveDelete(in.Env, in.Mount, "tree")
				elapsed += r.Seconds()
			}
			b.ReportMetric(elapsed/float64(b.N), "sim_s")
		})
	}
}

// BenchmarkAblationApplyOnQuery isolates the §4 apply-on-query policy
// under an rm-like alternation of range deletes and queries.
func BenchmarkAblationApplyOnQuery(b *testing.B) {
	for _, legacy := range []bool{true, false} {
		legacy := legacy
		name := "v06_policy"
		if legacy {
			name = "v04_legacy"
		}
		b.Run(name, func(b *testing.B) {
			var elapsed float64
			for i := 0; i < b.N; i++ {
				env, s := buildTree(b, func(c *betree.Config) { c.LegacyApplyOnQuery = legacy })
				tr := s.Meta()
				for f := 0; f < 20000; f++ {
					tr.Put([]byte(fmt.Sprintf("d/f%06d", f)), make([]byte, 200), betree.LogAuto)
				}
				s.Checkpoint()
				start := env.Now()
				for f := 0; f < 20000; f += 2 {
					lo := []byte(fmt.Sprintf("d/f%06d", f))
					hi := []byte(fmt.Sprintf("d/f%06d", f+1))
					tr.DeleteRange(lo, hi, betree.LogAuto)
					tr.Get(hi) // the interleaved readdir-style query
				}
				elapsed += (env.Now() - start).Seconds()
			}
			b.ReportMetric(elapsed/float64(b.N), "sim_s")
		})
	}
}

// BenchmarkAblationBasement isolates partial (basement-granular) leaf
// reads vs whole-leaf reads under cold random point queries (§2.2).
func BenchmarkAblationBasement(b *testing.B) {
	for _, whole := range []bool{false, true} {
		whole := whole
		name := "basement_reads"
		if whole {
			name = "whole_leaf_reads"
		}
		b.Run(name, func(b *testing.B) {
			var elapsed float64
			for i := 0; i < b.N; i++ {
				env, s := buildTree(b, nil)
				tr := s.Data()
				for f := 0; f < 30000; f++ {
					tr.Put([]byte(fmt.Sprintf("f%06d", f)), make([]byte, 4096), betree.LogAuto)
				}
				s.DropCleanCaches()
				tr.SetSeqHint(whole) // seq hint forces whole-leaf reads
				rnd := sim.NewRand(3)
				start := env.Now()
				for q := 0; q < 300; q++ {
					tr.Get([]byte(fmt.Sprintf("f%06d", rnd.Intn(30000))))
					s.DropCleanCaches() // keep every query cold
				}
				elapsed += (env.Now() - start).Seconds()
			}
			b.ReportMetric(elapsed/float64(b.N), "sim_s")
		})
	}
}

// BenchmarkAblationPageSharing isolates insert-by-reference (§6) under a
// sequential write of 4 KiB pages.
func BenchmarkAblationPageSharing(b *testing.B) {
	for _, pgsh := range []bool{false, true} {
		pgsh := pgsh
		name := "copy_per_level"
		if pgsh {
			name = "page_sharing"
		}
		b.Run(name, func(b *testing.B) {
			// Ladder rungs differing only in PGSH: +MLC vs +PGSH.
			system := "betrfs+MLC"
			if pgsh {
				system = "betrfs+PGSH"
			}
			var mbps float64
			for i := 0; i < b.N; i++ {
				in := bench.Build(system, benchScale)
				r := workload.SequentialWrite(in.Env, in.Mount, (80<<30)/benchScale, 1<<20)
				mbps += r.MBps()
			}
			b.ReportMetric(mbps/float64(b.N), "sim_MB/s")
		})
	}
}

// BenchmarkAblationSFL isolates the storage substrate: stacked ext4
// southbound (v0.4) vs the Simple File Layer, everything else at v0.4.
func BenchmarkAblationSFL(b *testing.B) {
	for _, name := range []string{"betrfs-v0.4", "betrfs+SFL"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				in := bench.Build(name, benchScale)
				r := workload.SequentialWrite(in.Env, in.Mount, (80<<30)/benchScale, 1<<20)
				mbps += r.MBps()
			}
			b.ReportMetric(mbps/float64(b.N), "sim_MB/s")
		})
	}
}

// BenchmarkAblationNodeSize sweeps the Bε-tree node size (the paper's
// 2–4 MiB choice) under random inserts followed by a scan.
func BenchmarkAblationNodeSize(b *testing.B) {
	for _, nodeSize := range []int{512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20} {
		nodeSize := nodeSize
		b.Run(fmt.Sprintf("node_%dKiB", nodeSize>>10), func(b *testing.B) {
			var elapsed float64
			for i := 0; i < b.N; i++ {
				env, s := buildTree(b, func(c *betree.Config) {
					c.NodeSize = nodeSize
					c.CacheBytes = 64 << 20
				})
				tr := s.Data()
				rnd := sim.NewRand(9)
				start := env.Now()
				for f := 0; f < 30000; f++ {
					tr.Put([]byte(fmt.Sprintf("f%06d", rnd.Intn(100000))), make([]byte, 4096), betree.LogAuto)
				}
				s.Sync()
				s.DropCleanCaches()
				tr.Scan(nil, nil, func(_, _ []byte) bool { return true })
				elapsed += (env.Now() - start).Seconds()
			}
			b.ReportMetric(elapsed/float64(b.N), "sim_s")
		})
	}
}

// BenchmarkAblationHDD reruns the headline comparison on the HDD model:
// BetrFS was compleat there before this paper's optimizations targeted
// SSDs.
func BenchmarkAblationHDD(b *testing.B) {
	for _, system := range []string{"ext4-hdd", "betrfs-v0.6-hdd"} {
		system := system
		b.Run(system, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := bench.Build(system, benchScale)
				r := workload.RandomWrite(in.Env, in.Mount, (10<<30)/benchScale, 2048, 4096)
				b.ReportMetric(r.MBps(), "rand4K_MB/s")
			}
		})
	}
}

// BenchmarkAblationAging measures resistance to aging (the FAST '17 claim
// the paper builds on): repeated churn — delete a fraction of a tree and
// recreate it — followed by a cold grep, on BetrFS v0.6 vs ext4.
func BenchmarkAblationAging(b *testing.B) {
	for _, system := range []string{"ext4", "betrfs-v0.6"} {
		system := system
		b.Run(system, func(b *testing.B) {
			var fresh, aged float64
			for i := 0; i < b.N; i++ {
				in := bench.Build(system, benchScale)
				spec := workload.LinuxTree(16)
				spec.Populate(in.Mount, "tree")
				g0 := workload.Grep(in.Env, in.Mount, "tree")
				fresh += g0.Seconds()
				// Churn: delete and recreate subtrees 8 times.
				for round := 0; round < 8; round++ {
					victim := fmt.Sprintf("tree/src/dir%02d", round%5)
					in.Mount.RemoveAll(victim)
					sub := workload.LinuxTree(64)
					sub.Populate(in.Mount, victim+"/re")
				}
				g1 := workload.Grep(in.Env, in.Mount, "tree")
				aged += g1.Seconds()
			}
			b.ReportMetric(fresh/float64(b.N), "fresh_grep_s")
			b.ReportMetric(aged/float64(b.N), "aged_grep_s")
			b.ReportMetric(aged/fresh, "aging_factor")
		})
	}
}
