package bench

import (
	"fmt"
	"net"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
)

// opcodeRowRE matches one row of the DESIGN.md §13.2 opcode table:
// "| LOOKUP  | 1    | `lookup`  | ... | ... |".
var opcodeRowRE = regexp.MustCompile("(?m)^\\| ([A-Z0-9]+) +\\| (\\d+) +\\| `([a-z0-9]+)` +\\|")

// statusListRE matches one "code NAME" pair of the §13.3 status list.
var statusListRE = regexp.MustCompile(`(\d+) (OK|E[A-Z]+)`)

// metricRowRE matches one row of the §13.7 metric table:
// "| `fsrpc.req.count` | counter | ... |".
var metricRowRE = regexp.MustCompile("(?m)^\\| `((?:fsrpc|fsserve)\\.[a-z0-9_.]+)` +\\| (counter|gauge|histogram) +\\|")

// section13 extracts the §13 chapter from DESIGN.md.
func section13(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	i := strings.Index(string(data), "## 13.")
	if i < 0 {
		t.Fatal("DESIGN.md has no §13")
	}
	return string(data[i:])
}

// TestWireSpecMatchesCode diffs the DESIGN.md §13 protocol specification
// against the implementation in both directions: every opcode-table row
// must name a real op with the right code and mnemonic, every op the code
// defines must have a row, the §13.3 status list must name every code the
// code defines and no other, and the §13.7 metric table must agree with the
// live registry (kind included).
func TestWireSpecMatchesCode(t *testing.T) {
	spec := section13(t)

	// --- §13.2 opcode table ---
	rows := opcodeRowRE.FindAllStringSubmatch(spec, -1)
	if len(rows) != len(fsrpc.Ops) {
		t.Errorf("§13.2 table has %d op rows, code defines %d ops", len(rows), len(fsrpc.Ops))
	}
	documentedOps := map[uint8]bool{}
	for _, row := range rows {
		name, mnemonic := row[1], row[3]
		code, err := strconv.Atoi(row[2])
		if err != nil || code < 1 || code > 255 {
			t.Errorf("§13.2 row %s: bad code %q", name, row[2])
			continue
		}
		documentedOps[uint8(code)] = true
		op := fsrpc.Op(code)
		if op.String() != mnemonic {
			t.Errorf("§13.2 row %s: code %d has mnemonic %q in code, %q in the spec",
				name, code, op.String(), mnemonic)
		}
		if strings.ToUpper(mnemonic) != name {
			t.Errorf("§13.2 row %s: mnemonic %q does not match the op name", name, mnemonic)
		}
	}
	for _, op := range fsrpc.Ops {
		if !documentedOps[uint8(op)] {
			t.Errorf("op %s (code %d) is missing from the §13.2 table", op, uint8(op))
		}
	}

	// --- §13.3 status values ---
	i := strings.Index(spec, "### 13.3")
	j := strings.Index(spec, "### 13.4")
	if i < 0 || j < 0 || j < i {
		t.Fatal("cannot locate §13.3")
	}
	statuses := statusListRE.FindAllStringSubmatch(spec[i:j], -1)
	if len(statuses) < 14 {
		t.Errorf("§13.3 lists %d status codes, want >= 14", len(statuses))
	}
	documentedStatuses := map[fsrpc.Status]bool{}
	for _, s := range statuses {
		code, _ := strconv.Atoi(s[1])
		documentedStatuses[fsrpc.Status(code)] = true
		if got := fsrpc.Status(code).String(); got != s[2] {
			t.Errorf("§13.3: status %d is %s in code, %s in the spec", code, got, s[2])
		}
	}
	// Codes are dense from 0; String names an undefined one "status<n>".
	for s := fsrpc.StatusOK; !strings.HasPrefix(s.String(), "status"); s++ {
		if !documentedStatuses[s] {
			t.Errorf("status %d (%s) is missing from the §13.3 list", uint8(s), s)
		}
	}

	// --- §13.7 metric table vs the live registry ---
	in := Build("ext4", 256)
	fsserve.New(in.Env, in.Mount, fsserve.DefaultConfig()).Shutdown()
	end, peer := net.Pipe()
	peer.Close()
	fsrpc.NewClientOpts(end, fsrpc.Options{Metrics: in.Env.Metrics}).Close()
	snap := in.Env.Metrics.Snapshot()
	kind := map[string]string{}
	for n := range snap.Counters {
		kind[n] = "counter"
	}
	for n := range snap.Gauges {
		kind[n] = "gauge"
	}
	for n := range snap.Histograms {
		kind[n] = "histogram"
	}

	mrows := metricRowRE.FindAllStringSubmatch(spec, -1)
	if len(mrows) == 0 {
		t.Fatal("§13.7 metric table matched no rows")
	}
	documentedMetrics := map[string]bool{}
	for _, row := range mrows {
		name, wantKind := row[1], row[2]
		documentedMetrics[name] = true
		if got, ok := kind[name]; !ok {
			t.Errorf("§13.7 documents %s but the server registers no such instrument", name)
		} else if got != wantKind {
			t.Errorf("§13.7: %s is a %s in code, %s in the spec", name, got, wantKind)
		}
	}
	// Per-op counters are covered by the §13.2 mnemonic rule instead of
	// one table row each.
	for op := range documentedOps {
		documentedMetrics[fmt.Sprintf("fsserve.op.%s", fsrpc.Op(op))] = true
	}
	for name := range kind {
		if !strings.HasPrefix(name, "fsrpc.") && !strings.HasPrefix(name, "fsserve.") {
			continue
		}
		if !documentedMetrics[name] {
			t.Errorf("server registers %s but §13.7 does not document it", name)
		}
	}
}

// blockRowRE matches one row of the DESIGN.md §14.3 block/control op
// table: "| `bopen` | yes | ... |". Mnemonic-first and code-less, so
// opcodeRowRE cannot mistake these rows for §13.2 entries.
var blockRowRE = regexp.MustCompile("(?m)^\\| `([a-z0-9]+)` +\\| (yes|no) +\\|")

// TestBlockClassSpecMatchesCode diffs the §14.3 table against
// fsrpc.Op.Block() in both directions: every row must name a real §14 op
// with the right block-class bit, every op the code adds beyond PING
// (the §13 frontier) must have a row, and every Block() op must be
// marked "yes".
func TestBlockClassSpecMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	i := strings.Index(string(data), "## 14.")
	if i < 0 {
		t.Fatal("DESIGN.md has no §14")
	}
	spec := string(data[i:])

	byMnemonic := map[string]fsrpc.Op{}
	for _, op := range fsrpc.Ops {
		byMnemonic[op.String()] = op
	}
	rows := blockRowRE.FindAllStringSubmatch(spec, -1)
	documented := map[string]bool{}
	for _, row := range rows {
		mnemonic, wantBlock := row[1], row[2] == "yes"
		documented[mnemonic] = true
		op, ok := byMnemonic[mnemonic]
		if !ok {
			t.Errorf("§14.3 documents op %q but the code defines no such op", mnemonic)
			continue
		}
		if op <= fsrpc.OpPing {
			t.Errorf("§14.3 row %q is a §13 file-class op (code %d)", mnemonic, uint8(op))
		}
		if op.Block() != wantBlock {
			t.Errorf("§14.3: %s block-class is %v in code, %v in the spec", mnemonic, op.Block(), wantBlock)
		}
	}
	for _, op := range fsrpc.Ops {
		if op > fsrpc.OpPing && !documented[op.String()] {
			t.Errorf("op %s (code %d) is missing from the §14.3 table", op, uint8(op))
		}
	}
}
