package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// inProcess is a bench whose trials and drivers run in the test process.
func inProcess(t *testing.T, o options) (*bench, *bytes.Buffer) {
	o.smoke, o.seed, o.out = true, 1, t.TempDir()
	var out bytes.Buffer
	return &bench{opt: o, w: &out, trial: runTrial, drivers: runLayerDrivers}, &out
}

// TestSmokeSuite runs every workload end to end at 1/16 size, traced run
// and layer drivers included, and holds the run to the benchmark's own
// invariants: nothing fails verification, the traced simulation equals the
// untraced one, and the span books balance (runTrial refuses otherwise).
func TestSmokeSuite(t *testing.T) {
	b, out := inProcess(t, options{trace: true, layers: true})
	all, err := b.suite()
	if err != nil {
		t.Fatalf("suite: %v\n%s", err, out)
	}
	for _, w := range workloads {
		m := all[w.Name]
		if m == nil || m.attempted == 0 || m.failed != 0 {
			t.Fatalf("%s: %+v", w.Name, m)
		}
		for _, spec := range endToEnd {
			if v := m.values[spec.Name].Median; v <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w.Name, spec.Name, v)
			}
		}
	}
	for _, spec := range perLayer() {
		if !strings.Contains(out.String(), "  "+spec.Name+" ") {
			t.Errorf("per-layer metric %s not printed", spec.Name)
		}
	}
	for _, w := range workloads[:3] {
		if _, err := os.Stat(filepath.Join(b.opt.out, "trace_"+w.Name+"_seed1.json")); err != nil {
			t.Errorf("%s: no Chrome trace: %v", w.Name, err)
		}
	}
}

// TestDriverLine checks the driver's form: the last line is the contract's
// JSON object with every metric of the asked kind.
func TestDriverLine(t *testing.T) {
	for _, tc := range []struct {
		trace bool
		want  int
	}{{false, len(endToEnd)}, {true, len(perLayer())}} {
		b, out := inProcess(t, options{workload: "seq_io", trace: tc.trace})
		if err := b.driverRun(); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line: %v", err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != tc.want {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d, %d metrics, want %d", tc.trace, line.Correct, line.Attempted, line.Failed, len(line.Metrics), tc.want)
		}
	}
}

// corruptFS flips one bit of the first block of every read on its way up.
type corruptFS struct{ vfsFS }

func (c corruptFS) ReadBlocks(h vfsHandle, blk int64, pages []*vfsPage, seq bool) error {
	err := c.vfsFS.ReadBlocks(h, blk, pages, seq)
	if len(pages) > 0 {
		pages[0].Data[7] ^= 0x40
	}
	return err
}

// TestCorruptedReadFailsTheRun proves verification is live: a stack that
// returns one wrong bit makes every simulated workload count failed ops,
// and the command exit non-zero.
func TestCorruptedReadFailsTheRun(t *testing.T) {
	corrupt := func(cfg trialConfig) (*trialResult, error) {
		return runTrialOn(cfg, func(fs vfsFS) vfsFS { return corruptFS{fs} })
	}
	for _, w := range workloads[:3] {
		r, err := corrupt(trialConfig{Workload: w.Name, Seed: 1, Smoke: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed == 0 || len(r.Notes) == 0 {
			t.Errorf("%s: a flipped bit went unnoticed", w.Name)
		}
	}
	b, out := inProcess(t, options{workload: "seq_io"})
	b.trial = corrupt
	if err := b.driverRun(); !errors.Is(err, errFailedOps) {
		t.Errorf("driver run over a corrupting stack: %v, want %v", err, errFailedOps)
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("result line does not say correct=false:\n%s", out)
	}
}

// TestRandIOWritesStartCold: on rand_io no write reaches the file system
// between a read and the next DropCaches. A cold read leaves its leaf half
// loaded in the node cache, and on the seed commit a flush into such a leaf
// can panic the next checkpoint (README.md "Seeds"); at full size 2 seeds
// of 56 did.
func TestRandIOWritesStartCold(t *testing.T) {
	var readSinceDrop, reported bool
	span := func(op string) func() {
		switch op {
		case "read_blocks":
			readSinceDrop = true
		case "drop_caches":
			readSinceDrop = false
		case "write_blocks", "write_partial":
			if readSinceDrop && !reported {
				reported = true
				t.Errorf("%s after a read with no DropCaches between", op)
			}
		}
		return func() {}
	}
	r, err := runTrialOn(trialConfig{Workload: "rand_io", Seed: 1, Smoke: true}, func(fs vfsFS) vfsFS {
		return &seamFS{FS: fs, span: span}
	})
	if err != nil || r.Failed != 0 {
		t.Fatalf("rand_io: %v, %+v", err, r)
	}
}

// TestDeterministicTrialRepeats: serve_mix's deterministic trial gives one
// simulated run per seed, bit for bit. (The other three workloads are held
// to that by the smoke suite, whose traced trials must equal its untraced
// ones.)
func TestDeterministicTrialRepeats(t *testing.T) {
	cfg := trialConfig{Workload: "serve_mix", Seed: 1, Smoke: true, Deterministic: true}
	a, err := runTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := endToEndOf(a), endToEndOf(b)
	for _, spec := range endToEnd {
		if simulated(spec.Name) && (ea[spec.Name] != eb[spec.Name] || ea[spec.Name] <= 0) {
			t.Errorf("%s = %v then %v on one seed", spec.Name, ea[spec.Name], eb[spec.Name])
		}
	}
}

// TestRelDiff: in A/A a metric that read 0 and then does not is beyond any
// bound, and equal readings, zeros included, are no difference.
func TestRelDiff(t *testing.T) {
	for _, tc := range []struct{ x, y, want float64 }{
		{0, 0, 0}, {2, 2, 0}, {2, 3, 0.5}, {4, 3, 0.25}, {0, 1e-9, math.Inf(1)},
	} {
		if got := relDiff(tc.x, tc.y); got != tc.want {
			t.Errorf("relDiff(%v, %v) = %v, want %v", tc.x, tc.y, got, tc.want)
		}
	}
}

// TestCatalogue holds the catalogue to the driver's limits and
// BENCHMARK.json to the catalogue.
func TestCatalogue(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q", n, u)
		}
		if better != "" && better != lower && better != higher {
			t.Errorf("%s: better %q", n, better)
		}
	}
	for _, w := range workloads {
		check(w.Name, "", "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	for _, m := range perLayer() {
		check(m.Name, m.Unit, m.Better)
	}
	if !setup || len(endToEnd) > 16 || len(perLayer()) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("setup_s=%v, %d end-to-end, %d per-layer, %d workloads", setup, len(endToEnd), len(perLayer()), len(workloads))
	}

	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: go run . --describe > ../BENCHMARK.json")
	}
}

// TestImports keeps the benchmark's API surface where README.md says it
// is: repository packages are imported by stack.go alone, only those the
// README's table lists, and never the two packages the ROADMAP reshapes.
func TestImports(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(betrfs/internal/[a-z]+)` \\|").FindAllStringSubmatch(string(readme), -1) {
		listed[m[1]] = true
	}
	if len(listed) == 0 {
		t.Fatal("README.md lists no API surface")
	}
	used := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			pkg, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(pkg, "betrfs/") {
				continue
			}
			used[pkg] = true
			switch {
			case pkg == "betrfs/internal/bench" || pkg == "betrfs/internal/workload":
				t.Errorf("%s imports %s, which the benchmark must not depend on", path, pkg)
			case path != "stack.go":
				t.Errorf("%s imports %s; only stack.go may import the repository", path, pkg)
			case !listed[pkg]:
				t.Errorf("stack.go imports %s, which README.md's API-surface table does not list", pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range listed {
		if !used[pkg] {
			t.Errorf("README.md lists %s, which nothing imports", pkg)
		}
	}
}
