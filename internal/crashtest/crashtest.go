// Package crashtest holds the repository's one workload format and its one
// oracle. A program is a list of Steps; Model.Run applies it to a Target
// (a mount, or a client of a served one) and to a legal-states model of
// what the target may then hold, and the model is checked against a mount.
// The crash sweeps cut the simulated device's unflushed-write stream after
// a program, at an enumerated or sampled point — optionally tearing one
// write mid-sector or dropping an arbitrary subset, modeling an
// out-of-order volatile cache — recover, and check the survivor:
//
//   - everything fsync'd (or covered by a full sync) must survive with
//     its durable content intact;
//   - everything newer may be present in any per-byte mix of
//     post-durable versions, or absent/zero where it was never durable;
//   - a durable file that is renamed survives under at least one of its
//     names;
//   - nothing else — no phantom files, no foreign data, no panics during
//     recovery or traversal.
//
// The fault and wire sweeps cut no power, so every step a run completed is
// durable there and the check is exact.
//
// The oracle is deliberately per-byte rather than per-file: torn data
// blocks legitimately mix an old and a new version within one sector,
// and out-of-place file systems legitimately expose unwritten (zero)
// blocks past the durable size. What is never legal is a byte below the
// durable watermark that matches no version the file ever had.
package crashtest

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"betrfs/internal/vfs"
)

// Op enumerates program step kinds.
type Op int

// Program step kinds. Truncate is deliberately absent: logfs reuses
// truncate-invalidated blocks before the NAT persists, a known model
// limitation documented in DESIGN.md.
const (
	OpMkdir Op = iota // Path and its missing ancestors
	OpWrite           // Data at Off in Path, creating the file
	OpFsync
	OpSync
	OpRemove
	// OpRename moves Path to To. The model does not follow the file's
	// durability across the rename: a program syncs after a rename before
	// it writes through the new name.
	OpRename
	// OpSyncInFlight is a sync the crash cuts short: its writes reach the
	// device but its flushes do not, so it makes nothing durable. It is
	// the last step of a program; flushes after it are dropped too.
	OpSyncInFlight
	// OpRead reads Path back and fails unless it holds the model's
	// current content, or is absent where the model holds no file. It
	// changes nothing.
	OpRead
)

var opNames = [...]string{"mkdir", "write", "fsync", "sync", "remove", "rename", "sync", "read"}

// Step is one program operation.
type Step struct {
	Op   Op
	Path string
	To   string // OpRename: the new path
	Off  int64
	Data []byte
}

// Target is what a program runs against. Each method performs one step
// kind; Write gets a run of consecutive OpWrite steps to one path, which
// a target may issue together.
type Target interface {
	Mkdir(path string) error
	Write(run []Step) error
	Fsync(path string) error
	Sync() error
	Remove(path string) error
	Rename(from, to string) error
	// Read returns up to n bytes of path from offset 0.
	Read(path string, n int) ([]byte, error)
}

// MountTarget runs programs on m. Every write opens its file; an fsync or
// a read goes through the file the step before it opened when it names the
// same path — write(2) and fsync(2) on one descriptor — and opens the file
// otherwise.
func MountTarget(m *vfs.Mount) Target { return &mountTarget{m: m} }

type mountTarget struct {
	m    *vfs.Mount
	path string
	f    *vfs.File // open on path; nil after a step that opened none
}

func (t *mountTarget) open(path string, create bool) (*vfs.File, error) {
	if t.f != nil && t.path == path && !create {
		return t.f, nil
	}
	t.drop()
	f, err := t.m.OpenFile(path, create, false)
	if err == nil {
		t.path, t.f = path, f
	}
	return f, err
}

func (t *mountTarget) drop() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
}

func (t *mountTarget) Write(run []Step) error {
	for _, s := range run {
		f, err := t.open(s.Path, true)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(s.Data, s.Off); err != nil {
			return err
		}
	}
	return nil
}

func (t *mountTarget) Fsync(path string) error {
	f, err := t.open(path, false)
	if err != nil {
		return err
	}
	return f.Fsync()
}

func (t *mountTarget) Read(path string, n int) ([]byte, error) {
	f, err := t.open(path, false)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	got, err := f.ReadAt(buf, 0)
	return buf[:got], err
}

func (t *mountTarget) Mkdir(path string) error      { t.drop(); return t.m.MkdirAll(path) }
func (t *mountTarget) Sync() error                  { t.drop(); return t.m.Sync() }
func (t *mountTarget) Remove(path string) error     { t.drop(); return t.m.Remove(path) }
func (t *mountTarget) Rename(from, to string) error { t.drop(); return t.m.Rename(from, to) }

// runLen is how many steps at the head of steps a target takes at once:
// the run of OpWrite steps to one path that begins there, or one step.
func runLen(steps []Step) int {
	n := 1
	if steps[0].Op == OpWrite {
		for n < len(steps) && steps[n].Op == OpWrite && steps[n].Path == steps[0].Path {
			n++
		}
	}
	return n
}

// do applies run, one runLen's worth of steps, to t.
func (mo *Model) do(t Target, run []Step) error {
	s := run[0]
	switch s.Op {
	case OpMkdir:
		return t.Mkdir(s.Path)
	case OpWrite:
		return t.Write(run)
	case OpFsync:
		return t.Fsync(s.Path)
	case OpSync, OpSyncInFlight:
		return t.Sync()
	case OpRemove:
		return t.Remove(s.Path)
	case OpRename:
		return t.Rename(s.Path, s.To)
	case OpRead:
		want, ok := mo.current(s.Path)
		got, err := t.Read(s.Path, len(want)+1)
		switch {
		case !ok && errors.Is(err, vfs.ErrNotExist):
			return nil
		case err == nil && !ok:
			err = errors.New("read a file the model does not hold")
		case err == nil && !bytes.Equal(got, want):
			err = fmt.Errorf("read back %d bytes that differ from the %d written", len(got), len(want))
		}
		return err
	}
	return fmt.Errorf("crashtest: unknown op %d", s.Op)
}

// Run applies steps to t in order, and each to the model once t has. It
// stops at the first step t fails and returns that failure. No power is
// cut, so every step before it must show on t: they enter the model as
// synced. The failed step may or may not have taken effect, and enters
// undecided. Programs that share one model concurrently must touch
// disjoint paths.
func (mo *Model) Run(t Target, steps []Step) error {
	for i, n := 0, 0; i < len(steps); i += n {
		n = runLen(steps[i:])
		if err := mo.do(t, steps[i:i+n]); err != nil {
			mo.settle(steps[:i])
			mo.record(steps[i : i+n]...)
			s := steps[i]
			return fmt.Errorf("step %d (%s %s): %w", i, opNames[s.Op], s.Path, err)
		}
		mo.record(steps[i : i+n]...)
	}
	mo.settle(steps)
	return nil
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

// Model is the legal-states model of every path programs touched. It is
// safe for concurrent use.
type Model struct {
	mu    sync.Mutex
	files map[string]*fileModel
	// renames holds the names of every file that was durable when it was
	// renamed, oldest first: it must survive under one of them. A remove
	// of the newest name retires the entry.
	renames [][]string
}

// NewModel returns the model of an empty file system.
func NewModel() *Model { return &Model{files: make(map[string]*fileModel)} }

func (mo *Model) get(path string) *fileModel {
	fm, ok := mo.files[path]
	if !ok {
		fm = &fileModel{durable: -1}
		mo.files[path] = fm
	}
	return fm
}

// current returns path's content in the latest state, and whether a file
// is there.
func (mo *Model) current(path string) ([]byte, bool) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	if fm, ok := mo.files[path]; ok && len(fm.history) > 0 && fm.last().exists && !fm.last().dir {
		return fm.last().data, true
	}
	return nil, false
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

// markDurable makes the latest state of each path durable.
func (mo *Model) markDurable(paths ...string) {
	for _, p := range paths {
		if fm, ok := mo.files[p]; ok && len(fm.history) > 0 {
			fm.durable = len(fm.history) - 1
		}
	}
}

// settle makes the latest state of every path steps touched, and of its
// ancestors, durable.
func (mo *Model) settle(steps []Step) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	for _, s := range steps {
		mo.markDurable(append(parents(s.Path), s.Path, s.To)...)
	}
}

// record advances the model by steps, which the target has applied.
func (mo *Model) record(steps ...Step) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	for _, s := range steps {
		mo.step(s)
	}
}

func (mo *Model) step(s Step) {
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
		if fm := mo.get(s.Path); len(fm.history) > 0 && fm.last().exists {
			mo.markDurable(append(parents(s.Path), s.Path)...)
		}
	case OpSync:
		for p := range mo.files {
			mo.markDurable(p)
		}
	case OpRemove:
		fm := mo.get(s.Path)
		fm.history = append(fm.history, snap{exists: false})
		mo.renames = slices.DeleteFunc(mo.renames, func(names []string) bool {
			return names[len(names)-1] == s.Path
		})
	case OpRename:
		from, to := mo.get(s.Path), mo.get(s.To)
		tracked := false
		for i, names := range mo.renames {
			if names[len(names)-1] == s.Path {
				mo.renames[i], tracked = append(names, s.To), true
			}
		}
		if !tracked && from.durable >= 0 && from.history[from.durable].exists {
			mo.renames = append(mo.renames, []string{s.Path, s.To})
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

// Violation is one oracle failure. Err is the mount's error behind it, if
// any.
type Violation struct {
	System string
	Spec   string // crash-spec description
	Path   string
	Detail string
	Err    error
}

func (v Violation) Error() string {
	s := v.Detail
	if v.Path != "" {
		s = v.Path + ": " + s
	}
	if v.System != "" {
		s = fmt.Sprintf("%s [%s] %s", v.System, v.Spec, s)
	}
	return s
}

func (v Violation) Unwrap() error { return v.Err }

// Check compares m, on which no power was cut since the programs ran,
// with the model. It returns every violation joined, each wrapping the
// mount's error behind it.
func (mo *Model) Check(m *vfs.Mount) error {
	var errs []error
	for _, v := range mo.check(m, "", "") {
		errs = append(errs, v)
	}
	return errors.Join(errs...)
}

// check compares the mount against the model.
func (mo *Model) check(m *vfs.Mount, system, spec string) []Violation {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	var out []Violation
	add := func(path string, err error, format string, args ...interface{}) {
		out = append(out, Violation{System: system, Spec: spec, Path: path, Detail: fmt.Sprintf(format, args...), Err: err})
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
				add(path, err, "durable path missing: %v", err)
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
			add(path, nil, "path present after durable remove")
			continue
		}
		if a.Dir != present[0].dir {
			add(path, nil, "type changed: recovered dir=%v, want dir=%v", a.Dir, present[0].dir)
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
			add(path, nil, "size %d outside legal range [%d,%d]", a.Size, durableLen, maxSize)
			continue
		}

		f, err := m.Open(path)
		if err != nil {
			add(path, err, "stat succeeded but open failed: %v", err)
			continue
		}
		buf := make([]byte, a.Size)
		n, err := f.ReadAt(buf, 0)
		f.Close()
		if err != nil || int64(n) != a.Size {
			add(path, err, "read %d of %d bytes: %v", n, a.Size, err)
			continue
		}
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
				add(path, nil, "byte %d = %#02x matches no legal version (durable watermark %d)", b, buf[b], durableLen)
				break
			}
		}
	}

	// A rename of a durable file must leave it under at least one of its
	// names; the per-path rules above alone would accept losing all.
	for _, names := range mo.renames {
		var err error
		for _, p := range names {
			if _, err = m.Stat(p); err == nil {
				break
			}
		}
		if err != nil {
			add(names[0], err, "durable file lost under both names of its rename to %s", names[len(names)-1])
		}
	}

	// Phantom sweep: every reachable entry must be a path the workload
	// created. Anything else is resurrected foreign state.
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := m.ReadDir(dir)
		if err != nil {
			add(dir, err, "readdir: %v", err)
			return
		}
		for _, e := range ents {
			p := e.Name
			if dir != "" {
				p = dir + "/" + e.Name
			}
			if _, ok := mo.files[p]; !ok && !strings.HasPrefix(p, ".") {
				add(p, nil, "phantom entry not created by workload")
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
