package fstest

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"betrfs/internal/sim"
	"betrfs/internal/systems"
	"betrfs/internal/vfs"
)

// TestFileContentModel drives random reads/writes/truncates against every
// file system and a plain in-memory reference, verifying byte-for-byte
// agreement, including across cache drops.
func TestFileContentModel(t *testing.T) {
	for _, name := range systems.Table1 {
		name := name
		t.Run(name, func(t *testing.T) {
			_, m := build(t, name)
			f, err := m.Create("model")
			if err != nil {
				t.Fatal(err)
			}
			var model []byte
			rnd := sim.NewRand(99)
			extend := func(n int) {
				if n > len(model) {
					model = append(model, make([]byte, n-len(model))...)
				}
			}
			for op := 0; op < 400; op++ {
				switch rnd.Intn(10) {
				case 0, 1, 2, 3, 4: // write
					off := rnd.Int63n(256 << 10)
					size := 1 + rnd.Intn(12<<10)
					data := bytes.Repeat([]byte{byte(op)}, size)
					f.WriteAt(data, off)
					extend(int(off) + size)
					copy(model[off:], data)
				case 5, 6, 7: // read & compare
					if len(model) == 0 {
						continue
					}
					off := rnd.Int63n(int64(len(model)))
					size := 1 + rnd.Intn(16<<10)
					buf := make([]byte, size)
					n, _ := f.ReadAt(buf, off)
					want := model[off:]
					if len(want) > n {
						want = want[:n]
					}
					if !bytes.Equal(buf[:n], want) {
						t.Fatalf("op %d: read mismatch at %d (+%d)", op, off, size)
					}
				case 8: // truncate shorter
					if len(model) == 0 {
						continue
					}
					nsz := rnd.Int63n(int64(len(model)) + 1)
					f.Truncate(nsz)
					model = model[:nsz]
				case 9: // drop caches mid-stream
					if rnd.Intn(4) == 0 {
						m.DropCaches()
						g, err := m.Open("model")
						if err != nil {
							t.Fatalf("op %d: reopen: %v", op, err)
						}
						f = g
					}
				}
				if f.Size() != int64(len(model)) {
					t.Fatalf("op %d: size %d, model %d", op, f.Size(), len(model))
				}
			}
			// Final full comparison after a cache drop.
			m.DropCaches()
			g, _ := m.Open("model")
			got := make([]byte, len(model))
			n, _ := g.ReadAt(got, 0)
			if n != len(model) || !bytes.Equal(got, model) {
				t.Fatalf("final content mismatch (%d vs %d bytes)", n, len(model))
			}
		})
	}
}

// TestNamespaceModel drives random namespace operations against every file
// system and a map-based reference.
func TestNamespaceModel(t *testing.T) {
	for _, name := range systems.Table1 {
		name := name
		t.Run(name, func(t *testing.T) {
			_, m := build(t, name)
			rnd := sim.NewRand(7)
			exists := map[string]byte{} // path -> 1 file, 2 dir
			dirs := []string{""}
			for op := 0; op < 300; op++ {
				switch rnd.Intn(6) {
				case 0: // mkdir
					parent := dirs[rnd.Intn(len(dirs))]
					p := join2(parent, fmt.Sprintf("d%03d", rnd.Intn(200)))
					err := m.Mkdir(p)
					if exists[p] != 0 {
						if err != vfs.ErrExist {
							t.Fatalf("mkdir existing %q: %v", p, err)
						}
					} else if err == nil {
						exists[p] = 2
						dirs = append(dirs, p)
					}
				case 1, 2: // create file
					parent := dirs[rnd.Intn(len(dirs))]
					p := join2(parent, fmt.Sprintf("f%03d", rnd.Intn(400)))
					if exists[p] != 0 {
						continue
					}
					f, err := m.Create(p)
					if err != nil {
						continue
					}
					f.Write([]byte("x"))
					f.Close()
					exists[p] = 1
				case 3: // remove file
					p := pickFile(rnd, exists)
					if p == "" {
						continue
					}
					if err := m.Remove(p); err != nil {
						t.Fatalf("remove %q: %v", p, err)
					}
					delete(exists, p)
				case 4: // stat consistency
					p := join2(dirs[rnd.Intn(len(dirs))], fmt.Sprintf("f%03d", rnd.Intn(400)))
					_, err := m.Stat(p)
					if exists[p] != 0 && err != nil {
						t.Fatalf("stat existing %q: %v", p, err)
					}
					if exists[p] == 0 && err == nil && !isDirPath(dirs, p) {
						t.Fatalf("stat ghost %q succeeded", p)
					}
				case 5:
					if rnd.Intn(10) == 0 {
						m.DropCaches()
					}
				}
			}
		})
	}
}

func join2(dir, name string) string {
	if dir == "" {
		return name
	}
	return dir + "/" + name
}

func pickFile(rnd *sim.Rand, exists map[string]byte) string {
	var files []string
	for p, kind := range exists {
		if kind == 1 {
			files = append(files, p)
		}
	}
	if len(files) == 0 {
		return ""
	}
	// The seed picks positions, so the list must not depend on the map's
	// iteration order; the pick is the smallest of a random sample.
	sort.Strings(files)
	best := ""
	for i := 0; i < 5 && i < len(files); i++ {
		c := files[rnd.Intn(len(files))]
		if best == "" || c < best {
			best = c
		}
	}
	return best
}

func isDirPath(dirs []string, p string) bool {
	for _, d := range dirs {
		if d == p {
			return true
		}
	}
	return false
}
