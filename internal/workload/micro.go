package workload

import (
	"bytes"
	"fmt"
	"time"

	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// Microbenchmarks of Table 1/3.

// SequentialWrite writes one file of total bytes in chunk-sized calls
// (fio-style), ending with fsync. Every call writes seqChunk(chunk).
func SequentialWrite(env *sim.Env, m *vfs.Mount, total int64, chunk int) Result {
	start := env.Now()
	f, err := m.Create("bigfile")
	if err != nil {
		panic(err)
	}
	buf := seqChunk(chunk)
	for written := int64(0); written < total; written += int64(chunk) {
		mustDo(f.Write(buf))
	}
	f.Fsync()
	f.Close()
	return Result{Name: "seq_write", Elapsed: env.Now() - start, Bytes: total}
}

// SequentialRead re-reads the file written by SequentialWrite after
// dropping caches, in calls of the same chunk size, so each call returns
// one written chunk (the last one possibly cut short). It panics on a
// chunk that differs from what was written; the check costs no simulated
// time.
func SequentialRead(env *sim.Env, m *vfs.Mount, chunk int) Result {
	m.DropCaches()
	f, err := m.Open("bigfile")
	if err != nil {
		panic(err)
	}
	start := env.Now()
	buf := make([]byte, chunk)
	want := seqChunk(chunk)
	var total int64
	for {
		n := mustDo(f.Read(buf))
		if n == 0 {
			break
		}
		if !bytes.Equal(buf[:n], want[:n]) {
			panic(fmt.Sprintf("workload: bigfile bytes [%d, %d) differ from what was written", total, total+int64(n)))
		}
		total += int64(n)
	}
	f.Close()
	return Result{Name: "seq_read", Elapsed: env.Now() - start, Bytes: total}
}

// RandomWrite performs count random writes of writeSize bytes into an
// existing fileSize-byte file, then one fsync (§7.1). 4 KiB writes are
// block-aligned; smaller writes land at arbitrary offsets.
func RandomWrite(env *sim.Env, m *vfs.Mount, fileSize int64, count int, writeSize int) Result {
	// Build the target file first (not timed).
	f, err := m.Create("randfile")
	if err != nil {
		panic(err)
	}
	big := make([]byte, 1<<20)
	for w := int64(0); w < fileSize; w += int64(len(big)) {
		mustDo(f.Write(big))
	}
	f.Fsync()
	m.DropCaches()
	if f, err = m.Open("randfile"); err != nil {
		panic(err)
	}

	rnd := sim.NewRand(11)
	buf := make([]byte, writeSize)
	start := env.Now()
	for i := 0; i < count; i++ {
		var off int64
		if writeSize >= vfs.PageSize {
			off = rnd.Int63n(fileSize/int64(writeSize)) * int64(writeSize)
		} else {
			off = rnd.Int63n(fileSize - int64(writeSize))
		}
		mustDo(f.WriteAt(buf, off))
	}
	f.Fsync()
	f.Close()
	return Result{
		Name:    fmt.Sprintf("rand_write_%d", writeSize),
		Elapsed: env.Now() - start,
		Bytes:   int64(count) * int64(writeSize),
		Ops:     int64(count),
	}
}

// TokuBench creates n 200-byte files in a balanced directory tree with
// fanout 128 (§7.1), reporting creation throughput.
func TokuBench(env *sim.Env, m *vfs.Mount, n int) Result {
	const fanout = 128
	payload := make([]byte, 200)
	start := env.Now()
	created := 0
	var makeLevel func(dir string, remaining int) int
	makeLevel = func(dir string, remaining int) int {
		if remaining <= 0 {
			return 0
		}
		if err := m.MkdirAll(dir); err != nil && err != vfs.ErrExist {
			panic(err)
		}
		if remaining <= fanout {
			for i := 0; i < remaining; i++ {
				f, err := m.Create(fmt.Sprintf("%s/f%07d", dir, created+i))
				if err != nil {
					panic(err)
				}
				mustDo(f.Write(payload))
				f.Close()
			}
			created += remaining
			return remaining
		}
		per := (remaining + fanout - 1) / fanout
		done := 0
		for i := 0; i < fanout && done < remaining; i++ {
			want := per
			if remaining-done < want {
				want = remaining - done
			}
			done += makeLevel(fmt.Sprintf("%s/d%03d", dir, i), want)
		}
		return done
	}
	makeLevel("tokubench", n)
	m.Sync()
	return Result{Name: "tokubench", Elapsed: env.Now() - start, Ops: int64(n)}
}

// grepScanPsPerByte models grep's own CPU cost per byte scanned.
const grepScanPsPerByte = 600 // ~1.7 GB/s

// Grep recursively reads every file under root with a cold cache,
// charging the scan cost (§7.1's cpu_to_be64 search).
func Grep(env *sim.Env, m *vfs.Mount, root string) Result {
	m.DropCaches()
	start := env.Now()
	buf := make([]byte, 64<<10)
	var scanned int64
	Walk(m, root, func(path string, e vfs.DirEntry) bool {
		if e.Dir {
			return true
		}
		f, err := m.Open(path)
		if err != nil {
			return true
		}
		for {
			n := mustDo(f.Read(buf))
			if n == 0 {
				break
			}
			env.Charge(psDuration(n, grepScanPsPerByte))
			scanned += int64(n)
		}
		f.Close()
		return true
	})
	return Result{Name: "grep", Elapsed: env.Now() - start, Bytes: scanned}
}

// Find walks the tree with a cold cache, stat-ing every entry and matching
// names (find -name wait.c).
func Find(env *sim.Env, m *vfs.Mount, root string) Result {
	m.DropCaches()
	start := env.Now()
	var ops int64
	Walk(m, root, func(path string, e vfs.DirEntry) bool {
		if _, err := m.Stat(path); err == nil {
			ops++
		}
		env.Compare(len(e.Name)) // name match
		return true
	})
	return Result{Name: "find", Elapsed: env.Now() - start, Ops: ops}
}

// RecursiveDelete removes the tree at root with a cold cache (rm -rf).
func RecursiveDelete(env *sim.Env, m *vfs.Mount, root string) Result {
	m.DropCaches()
	start := env.Now()
	if err := m.RemoveAll(root); err != nil {
		panic(err)
	}
	m.Sync()
	return Result{Name: "rm", Elapsed: env.Now() - start}
}

// seqChunk is the chunk SequentialWrite writes over and over.
func seqChunk(chunk int) []byte {
	buf := make([]byte, chunk)
	for i := range buf {
		buf[i] = byte(i)
	}
	return buf
}

// mustDo returns the byte count of a file read or write, panicking on its
// error as the workloads do on a failed Create: a benchmark cell measured
// over a failed call would be silently wrong.
func mustDo(n int, err error) int {
	if err != nil {
		panic(err)
	}
	return n
}

func psDuration(bytes int, ps int64) time.Duration {
	return time.Duration(int64(bytes) * ps / 1000)
}
