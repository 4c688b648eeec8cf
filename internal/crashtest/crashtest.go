// Package crashtest is the systematic crash-consistency verification
// harness. It runs a recorded workload against any of the repository's
// file systems (and the raw SFL-backed Bε-tree store), crashes the
// simulated device at an enumerated or sampled point in the
// unflushed-write stream — optionally tearing one write mid-sector or
// dropping an arbitrary subset, modeling an out-of-order volatile cache —
// recovers, and checks the survivor against a legal-states oracle:
//
//   - everything fsync'd (or covered by a full sync) must survive with
//     its durable content intact;
//   - everything newer may be present in any per-byte mix of
//     post-durable versions, or absent/zero where it was never durable;
//   - a durable file that is renamed survives under at least one of its
//     two names;
//   - nothing else — no phantom files, no foreign data, no panics during
//     recovery or traversal.
//
// The oracle is deliberately per-byte rather than per-file: torn data
// blocks legitimately mix an old and a new version within one sector,
// and out-of-place file systems legitimately expose unwritten (zero)
// blocks past the durable size. What is never legal is a byte below the
// durable watermark that matches no version the file ever had.
package crashtest

import (
	"fmt"
	"sort"
	"strings"

	"betrfs/internal/vfs"
)

// Op enumerates workload step kinds.
type Op int

// Workload step kinds. Truncate is deliberately absent: logfs reuses
// truncate-invalidated blocks before the NAT persists, a known model
// limitation documented in DESIGN.md.
const (
	OpMkdir Op = iota
	OpWrite
	OpFsync
	OpSync
	OpRemove
	// OpRename moves Path to To. The model does not follow the file
	// across the rename: a program syncs after a rename before it writes
	// through the new name, and never removes the new name.
	OpRename
	// OpSyncInFlight is a sync the crash cuts short: its writes reach the
	// device but its flushes do not, so it makes nothing durable. It is
	// the last step of a program; flushes after it are dropped too.
	OpSyncInFlight
)

// Step is one recorded workload operation.
type Step struct {
	Op   Op
	Path string
	To   string // OpRename: the new path
	Off  int64
	Data []byte
}

// snap is one point-in-time state of a path.
type snap struct {
	exists bool
	dir    bool
	data   []byte
}

// fileModel is the oracle's view of one path: every state it passed
// through, and the index of the last state known durable.
type fileModel struct {
	history []snap
	durable int // index into history; -1 = never durable
}

func (fm *fileModel) last() snap {
	return fm.history[len(fm.history)-1]
}

// model tracks every path a workload touched.
type model struct {
	files map[string]*fileModel
	// renames holds the (from, to) paths of every rename whose source
	// was durable when it ran.
	renames [][2]string
}

func newModel() *model { return &model{files: make(map[string]*fileModel)} }

func (mo *model) get(path string) *fileModel {
	fm, ok := mo.files[path]
	if !ok {
		fm = &fileModel{durable: -1}
		mo.files[path] = fm
	}
	return fm
}

// parents returns the ancestor directories of path ("a/b/c" → "a", "a/b").
func parents(path string) []string {
	var out []string
	for i, r := range path {
		if r == '/' {
			out = append(out, path[:i])
		}
	}
	return out
}

// apply advances the model by one step. It must mirror exactly what
// applyStep does to the live mount.
func (mo *model) apply(s Step) {
	switch s.Op {
	case OpMkdir:
		comps := append(parents(s.Path), s.Path)
		for _, p := range comps {
			fm := mo.get(p)
			if len(fm.history) > 0 && fm.last().exists {
				continue
			}
			fm.history = append(fm.history, snap{exists: true, dir: true})
		}
	case OpWrite:
		fm := mo.get(s.Path)
		var prev []byte
		if len(fm.history) > 0 && fm.last().exists {
			prev = fm.last().data
		}
		end := s.Off + int64(len(s.Data))
		n := int64(len(prev))
		if end > n {
			n = end
		}
		nd := make([]byte, n)
		copy(nd, prev)
		copy(nd[s.Off:], s.Data)
		fm.history = append(fm.history, snap{exists: true, data: nd})
	case OpFsync:
		// fsync persists the file's content and the namespace leading to
		// it (journal commit / NAT+node write / ZIL flush / log flush all
		// cover the pending creates of ancestors).
		fm := mo.get(s.Path)
		if len(fm.history) == 0 || !fm.last().exists {
			return
		}
		fm.durable = len(fm.history) - 1
		for _, p := range parents(s.Path) {
			if pfm, ok := mo.files[p]; ok && len(pfm.history) > 0 {
				pfm.durable = len(pfm.history) - 1
			}
		}
	case OpSync:
		for _, fm := range mo.files {
			if len(fm.history) > 0 {
				fm.durable = len(fm.history) - 1
			}
		}
	case OpRemove:
		fm := mo.get(s.Path)
		fm.history = append(fm.history, snap{exists: false})
	case OpRename:
		from, to := mo.get(s.Path), mo.get(s.To)
		if from.durable >= 0 && from.history[from.durable].exists {
			mo.renames = append(mo.renames, [2]string{s.Path, s.To})
		}
		// Until the rename is durable the destination may recover to any
		// content the source could: its durable version or a later one.
		lo := from.durable
		if lo < 0 {
			lo = 0
		}
		for _, c := range from.history[lo:] {
			if c.exists {
				to.history = append(to.history, c)
			}
		}
		from.history = append(from.history, snap{exists: false})
	}
}

// applyStep performs one step against the live mount.
func applyStep(m *vfs.Mount, s Step) {
	switch s.Op {
	case OpMkdir:
		m.MkdirAll(s.Path)
	case OpWrite:
		f, err := m.OpenFile(s.Path, true, false)
		if err != nil {
			panic(fmt.Sprintf("crashtest: workload write %s: %v", s.Path, err))
		}
		f.WriteAt(s.Data, s.Off)
		f.Close()
	case OpFsync:
		f, err := m.Open(s.Path)
		if err != nil {
			return
		}
		f.Fsync()
		f.Close()
	case OpSync, OpSyncInFlight:
		m.Sync()
	case OpRemove:
		m.Remove(s.Path)
	case OpRename:
		if err := m.Rename(s.Path, s.To); err != nil {
			panic(fmt.Sprintf("crashtest: workload rename %s: %v", s.Path, err))
		}
	}
}

// Violation is one oracle failure.
type Violation struct {
	System string
	Spec   string // crash-spec description
	Path   string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s [%s] %s: %s", v.System, v.Spec, v.Path, v.Detail)
}

// check compares the recovered mount against the model.
func (mo *model) check(m *vfs.Mount, system, spec string) []Violation {
	var out []Violation
	add := func(path, format string, args ...interface{}) {
		out = append(out, Violation{System: system, Spec: spec, Path: path, Detail: fmt.Sprintf(format, args...)})
	}

	paths := make([]string, 0, len(mo.files))
	for p := range mo.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	for _, path := range paths {
		fm := mo.files[path]
		floor := fm.durable
		lo := floor
		if lo < 0 {
			lo = 0
		}
		cands := fm.history[lo:]

		// Absence is legal iff the path was never durable, or some
		// post-durable state (a newer, possibly unsynced remove) lacks it.
		absentOK := floor < 0
		for _, c := range cands {
			if !c.exists {
				absentOK = true
			}
		}

		a, err := m.Stat(path)
		if err != nil {
			if !absentOK {
				add(path, "durable path missing after recovery: %v", err)
			}
			continue
		}

		var present []snap
		for _, c := range cands {
			if c.exists {
				present = append(present, c)
			}
		}
		if len(present) == 0 {
			add(path, "path present after durable remove")
			continue
		}
		if a.Dir != present[0].dir {
			add(path, "type changed: recovered dir=%v, want dir=%v", a.Dir, present[0].dir)
			continue
		}
		if a.Dir {
			continue // content of dirs is checked via their children
		}

		// The durable watermark: bytes below it must match a known
		// version; bytes at or above it may additionally read zero
		// (never-persisted out-of-place blocks). A post-durable remove
		// (legal to persist) erases the watermark.
		durableLen := int64(0)
		if floor >= 0 && fm.history[floor].exists {
			durableLen = int64(len(fm.history[floor].data))
		}
		if absentOK {
			durableLen = 0
		}
		maxSize := int64(0)
		for _, c := range present {
			if int64(len(c.data)) > maxSize {
				maxSize = int64(len(c.data))
			}
		}
		if a.Size < durableLen || a.Size > maxSize {
			add(path, "size %d outside legal range [%d,%d]", a.Size, durableLen, maxSize)
			continue
		}

		f, err := m.Open(path)
		if err != nil {
			add(path, "stat succeeded but open failed: %v", err)
			continue
		}
		buf := make([]byte, a.Size)
		f.ReadAt(buf, 0)
		f.Close()
		for b := int64(0); b < int64(len(buf)); b++ {
			ok := buf[b] == 0 && b >= durableLen
			if !ok {
				for _, c := range present {
					if b < int64(len(c.data)) && c.data[b] == buf[b] {
						ok = true
						break
					}
				}
			}
			if !ok {
				add(path, "byte %d = %#02x matches no legal version (durable watermark %d)", b, buf[b], durableLen)
				break
			}
		}
	}

	// A rename of a durable file must leave it under at least one of its
	// two names; the per-path rules above alone would accept losing both.
	for _, r := range mo.renames {
		_, errFrom := m.Stat(r[0])
		_, errTo := m.Stat(r[1])
		if errFrom != nil && errTo != nil {
			add(r[0], "durable file lost under both names of its rename to %s", r[1])
		}
	}

	// Phantom sweep: every reachable entry must be a path the workload
	// created. Anything else is resurrected foreign state.
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := m.ReadDir(dir)
		if err != nil {
			return
		}
		for _, e := range ents {
			p := e.Name
			if dir != "" {
				p = dir + "/" + e.Name
			}
			if _, ok := mo.files[p]; !ok && !strings.HasPrefix(p, ".") {
				add(p, "phantom entry not created by workload")
				continue
			}
			if e.Dir {
				walk(p)
			}
		}
	}
	walk("")
	return out
}
