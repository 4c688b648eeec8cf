package bench

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// goldenWAF4096 pins the aged write-amplification gauge (io.waf, in
// milli) of the TRIM-aware churn rung at scale 4096 for the two fastest
// discard-wired systems. Like the golden Table 1 cells, the deterministic
// single-worker mode admits no tolerance: the churn sequence, the FTL's
// greedy victim selection, and therefore the final gauge are a pure
// function of the seed. Regenerate with:
// go run ./cmd/betrbench -aging -scale 4096 -systems f2fs,btrfs
// (and update this table in the same commit, explaining the change).
var goldenWAF4096 = map[string]int64{
	"f2fs":  1070,
	"btrfs": 1087,
}

// TestWAFDeterministic asserts two fresh aging runs produce bit-identical
// FTL ledgers, and that the TRIM-run WAF matches the pinned golden value.
func TestWAFDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := DefaultAgingConfig()
	for system, want := range goldenWAF4096 {
		snap1, _, errs1 := runAgingOnce(system, 4096, cfg, false)
		snap2, _, errs2 := runAgingOnce(system, 4096, cfg, false)
		if len(errs1) > 0 || len(errs2) > 0 {
			t.Fatalf("%s: aging errors: %v %v", system, errs1, errs2)
		}
		if got1, got2 := snap1.Gauges["io.waf"], snap2.Gauges["io.waf"]; got1 != got2 {
			t.Errorf("%s: io.waf diverged across identical runs: %d vs %d", system, got1, got2)
		} else if got1 != want {
			t.Errorf("%s: io.waf = %d milli, pinned %d", system, got1, want)
		}
		for _, k := range []string{"ftl.write.host.bytes", "ftl.write.flash.bytes", "ftl.erase.count", "ftl.gc.moved.pages", "ftl.trim.bytes"} {
			if snap1.Counters[k] != snap2.Counters[k] {
				t.Errorf("%s: counter %s diverged: %d vs %d", system, k, snap1.Counters[k], snap2.Counters[k])
			}
		}
	}
}

// agingDriftTier1 names the rows of EXPERIMENTS.md's aging table that
// every test run regenerates (each takes one to two seconds); the other
// rows are regenerated with BETRFS_DRIFT=all, which `make aging` sets.
var agingDriftTier1 = map[string]bool{"betrfs-v0.6": true}

// agingDocRow is one row of EXPERIMENTS.md's aging table.
type agingDocRow struct {
	system string
	cells  []float64 // in agingColumns order
}

// experimentsAgingTable reads the aging table out of EXPERIMENTS.md: the
// header row names agingColumns in order, and each row below it, up to
// the end of the code block, holds one system's cells.
func experimentsAgingTable(t *testing.T) []agingDocRow {
	t.Helper()
	data, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	header := []string{"system"}
	for _, c := range agingColumns {
		header = append(header, fmt.Sprintf("%s (%s)", c.Name, c.Unit))
	}
	var rows []agingDocRow
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		cells := strings.Split(line, "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		switch {
		case !in:
			in = slices.Equal(cells, header)
		case strings.HasPrefix(line, "```"):
			return rows
		default:
			if len(cells) != len(header) {
				t.Fatalf("EXPERIMENTS.md aging row %q: %d cells, want %d", line, len(cells), len(header))
			}
			row := agingDocRow{system: cells[0]}
			for _, c := range cells[1:] {
				v, err := strconv.ParseFloat(c, 64)
				if err != nil {
					t.Fatalf("EXPERIMENTS.md aging row %q: %v", line, err)
				}
				row.cells = append(row.cells, v)
			}
			rows = append(rows, row)
		}
	}
	t.Fatal("EXPERIMENTS.md has no aging table")
	return nil
}

// TestAgingTableDrift regenerates EXPERIMENTS.md's aging table (scale
// 1/4096, the default churn) and fails on every cell that differs from
// the document at two decimals. Regenerate the table with:
// go run ./cmd/betrbench -aging -scale 4096 -systems f2fs,btrfs,betrfs-v0.4,betrfs-v0.6
func TestAgingTableDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := experimentsAgingTable(t)
	documented := map[string]bool{}
	for _, row := range rows {
		documented[row.system] = true
	}
	for system := range agingDriftTier1 {
		if !documented[system] {
			t.Errorf("EXPERIMENTS.md's aging table has no %s row", system)
		}
	}
	all := os.Getenv("BETRFS_DRIFT") == "all"
	for _, row := range rows {
		if !all && !agingDriftTier1[row.system] {
			continue
		}
		t.Run(row.system, func(t *testing.T) {
			r, _ := RunAging(row.system, 4096, DefaultAgingConfig())
			if len(r.Errors) > 0 {
				t.Fatalf("aging errors: %v", r.Errors)
			}
			for i, c := range agingColumns {
				if got := math.Round(c.Get(r)*100) / 100; got != row.cells[i] {
					t.Errorf("%s: EXPERIMENTS.md says %v, measured %.2f", c.Name, row.cells[i], c.Get(r))
				}
			}
		})
	}
}
