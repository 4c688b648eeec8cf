// Package deadcode holds one test: every declaration in the module's
// non-test files is reached from a program's entry points. Tests are not
// callers, so code that only a test reaches fails too, unless the
// allowlist below names it as a test seam with a reason.
package deadcode

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// seams are the declarations that exist so that tests can inject a
// fault or account for a leak, and the harness packages that only tests
// import. A key is a package's import path, a file's path in the
// repository, or a declaration as the failure prints it; a type's key
// covers its methods.
var seams = map[string]string{
	"betrfs/internal/crashtest":           "crash-sweep harness, imported by tests only",
	"betrfs/internal/faulttest":           "fault-injection harness, imported by tests only",
	"betrfs/internal/nettest":             "wire-fault harness, imported by tests only",
	"betrfs/internal/metrics/metricstest": "metric assertion helpers, imported by tests only",
	"internal/blockdev/retry.go":          "the fault harness's retry layer over a FaultDev",
	"internal/metrics/trace.go":           "the trace ring, which the flight recorder on ROADMAP.md builds on",
	"betree.Store.ImagesOut":              "leak check: every node image a decoded value borrowed comes back",
	"blockdev.Dev.CorruptZero":            "fault injection: a lost write or latent sector error on the media",
	"blockdev.FaultDev.FailWritesNow":     "fault injection: the write path dies mid-run",
	"fsrpc.Client.Reset":                  "leak check: window slots and pooled calls survive a swapped poisoned transport",
	"sim.CPUStats":                        "the charge-class tests read it until a time ledger replaces it",
	"systems.Recoverable":                 "the crash sweeps' list of systems that remount from a crashed image",
	"systems.System.Recover":              "the crash sweeps' remount of a crashed image",
	"vfs.File.Truncate":                   "the frame and namespace-model tests shrink files under the page cache",
}

// std names the methods that standard-library code calls through its own
// interfaces, which no module interface declares: fmt, errors,
// encoding/json, sort, container/heap and io.
var std = []string{"String", "Error", "Unwrap", "MarshalJSON", "Len", "Less", "Swap", "Push", "Pop", "Read", "Write", "Close"}

// listed is one package as `go list -json` prints it.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
}

// decl is one top-level declaration of a non-test file.
type decl struct {
	obj    types.Object
	pos    token.Position
	lines  int
	refs   []types.Object // the package-level objects its syntax names
	judged bool           // in the module, not in benchmark/
}

// program is the module and benchmark/ type-checked from source.
type program struct {
	fset    *token.FileSet
	decls   map[types.Object]*decl
	roots   []types.Object
	iface   map[string]bool // method names some interface declares
	methods map[*types.TypeName][]*types.Func
}

func TestEveryDeclarationHasACaller(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []listed
	for _, dir := range []string{root, filepath.Join(root, "benchmark")} {
		pkgs = append(pkgs, goList(t, dir)...)
	}
	p := load(t, pkgs)
	reached := p.walk()

	used := map[string]bool{}
	var dead []*decl
	for obj, d := range p.decls {
		if reached[obj] || !d.judged {
			continue
		}
		if key := seam(root, d); key != "" {
			used[key] = true
			continue
		}
		dead = append(dead, d)
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	total := 0
	for _, d := range dead {
		rel, _ := filepath.Rel(root, d.pos.Filename)
		t.Errorf("%s:%d: %s has no caller outside tests (%d lines)", rel, d.pos.Line, name(d.obj), d.lines)
		total += d.lines
	}
	if len(dead) > 0 {
		t.Errorf("%d declarations, %d lines: delete them, or add a test seam to the allowlist with its reason", len(dead), total)
	}
	for key := range seams {
		if !used[key] {
			t.Errorf("allowlist entry %q names nothing unreached: delete it", key)
		}
	}
}

// goList lists every package that dir's module builds, with its
// dependencies, and the export data of each.
func goList(t *testing.T, dir string) []listed {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard,Module", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listed
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// load type-checks every non-standard package from source, in the
// dependency order go list prints, and the standard library from its
// export data. The module's declarations are judged; benchmark/ only
// contributes roots and references.
func load(t *testing.T, pkgs []listed) *program {
	p := &program{
		fset:    token.NewFileSet(),
		decls:   map[types.Object]*decl{},
		iface:   map[string]bool{},
		methods: map[*types.TypeName][]*types.Func{},
	}
	for _, name := range std {
		p.iface[name] = true
	}
	export := map[string]string{}
	for _, lp := range pkgs {
		if lp.Standard {
			export[lp.ImportPath] = lp.Export
		}
	}
	imp := moduleImporter{
		std: importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) {
			if f := export[path]; f != "" {
				return os.Open(f)
			}
			return nil, fmt.Errorf("no export data for %s", path)
		}),
		pkgs: map[string]*types.Package{},
	}
	for _, lp := range pkgs {
		if lp.Standard || imp.pkgs[lp.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(p.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		tp, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, p.fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		imp.pkgs[lp.ImportPath] = tp
		p.add(tp, files, info, lp.Module != nil && lp.Module.Path == "betrfs")
	}
	return p
}

// add records one checked package: its roots, the method names its
// interfaces declare, and its declarations.
func (p *program) add(tp *types.Package, files []*ast.File, info *types.Info, judged bool) {
	for expr, tv := range info.Types {
		if _, ok := expr.(*ast.InterfaceType); !ok {
			continue
		}
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				p.iface[it.Method(i).Name()] = true
			}
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			for _, n := range split(d) {
				obj := info.Defs[n.name]
				fn, _ := obj.(*types.Func)
				switch {
				case n.name.Name == "_",
					fn != nil && receiver(fn) == nil && (fn.Name() == "init" || fn.Name() == "main" && tp.Name() == "main"):
					p.roots = append(p.roots, refs(n.body, info)...)
					continue
				case obj == nil:
					continue
				}
				if tn := receiver(obj); tn != nil {
					p.methods[tn] = append(p.methods[tn], fn)
				}
				start := p.fset.Position(n.start)
				p.decls[obj] = &decl{
					obj:    obj,
					pos:    start,
					lines:  p.fset.Position(n.body.End()).Line - start.Line + 1,
					refs:   refs(n.body, info),
					judged: judged,
				}
			}
		}
	}
}

// walk returns every object reached from the roots. A method is reached
// when it is named directly, or when its receiver type is reached and an
// interface declares its name, since a call through that interface may
// land on it.
func (p *program) walk() map[types.Object]bool {
	reached := map[types.Object]bool{}
	work := append([]types.Object(nil), p.roots...)
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		if d := p.decls[obj]; d != nil {
			work = append(work, d.refs...)
		}
		if tn := receiver(obj); tn != nil {
			work = append(work, tn)
		}
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range p.methods[tn] {
				if p.iface[m.Name()] {
					work = append(work, m)
				}
			}
		}
	}
	return reached
}

// moduleImporter hands out the packages already checked from source, and
// the standard library from its export data.
type moduleImporter struct {
	std  types.Importer
	pkgs map[string]*types.Package
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	return m.std.Import(path)
}

// node is one declared name with the syntax that belongs to it.
type node struct {
	name  *ast.Ident
	start token.Pos // its doc comment, if any
	body  ast.Node
}

// split breaks a top-level declaration into its names: a function, or
// each spec of a type, var or const group. A spec that declares several
// names is one node per name over the same syntax.
func split(d ast.Decl) []node {
	switch d := d.(type) {
	case *ast.FuncDecl:
		start := d.Pos()
		if d.Doc != nil {
			start = d.Doc.Pos()
		}
		return []node{{d.Name, start, d}}
	case *ast.GenDecl:
		var out []node
		for _, s := range d.Specs {
			start := s.Pos()
			if len(d.Specs) == 1 && d.Doc != nil {
				start = d.Doc.Pos()
			}
			switch s := s.(type) {
			case *ast.TypeSpec:
				if s.Doc != nil {
					start = s.Doc.Pos()
				}
				out = append(out, node{s.Name, start, s})
			case *ast.ValueSpec:
				if s.Doc != nil {
					start = s.Doc.Pos()
				}
				for _, n := range s.Names {
					out = append(out, node{n, start, s})
				}
			}
		}
		return out
	}
	return nil
}

// refs lists the package-level objects and methods that the syntax under
// n names. Fields are not declarations of their own and are left out.
func refs(n ast.Node, info *types.Info) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			if o.IsField() {
				return true
			}
			obj = o.Origin()
		}
		if obj.Parent() == obj.Pkg().Scope() || receiver(obj) != nil {
			out = append(out, obj)
		}
		return true
	})
	return out
}

// receiver is the named type a method is declared on, or nil when obj is
// not a method.
func receiver(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// name prints a declaration the way the allowlist keys it, with the
// package's last path element: vfs.File.Truncate, sim.CPUStats.
func name(obj types.Object) string {
	pkg := obj.Pkg().Path()
	pkg = pkg[strings.LastIndex(pkg, "/")+1:]
	if tn := receiver(obj); tn != nil {
		return pkg + "." + tn.Name() + "." + obj.Name()
	}
	return pkg + "." + obj.Name()
}

// seam is the allowlist key that covers d, or "".
func seam(root string, d *decl) string {
	rel, _ := filepath.Rel(root, d.pos.Filename)
	keys := []string{d.obj.Pkg().Path(), filepath.ToSlash(rel), name(d.obj)}
	if tn := receiver(d.obj); tn != nil {
		keys = append(keys, name(tn))
	}
	for _, k := range keys {
		if _, ok := seams[k]; ok {
			return k
		}
	}
	return ""
}
