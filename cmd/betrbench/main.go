// Command betrbench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	betrbench -table 1            # Table 1: baselines + BetrFS v0.4/v0.6
//	betrbench -table 2            # Table 2: SFL on-disk layout
//	betrbench -table 3            # Table 3: cumulative optimization ladder
//	betrbench -figure 2           # Figure 2: application benchmarks
//	betrbench -hdd                # HDD ablation (BetrFS was compleat there first)
//	betrbench -shard -shards 3    # scale-out rung: prefix-routed shard deployment
//	betrbench -scale 128 -table 1 # coarser scaling for quick runs
//	betrbench -systems ext4,betrfs-v0.6 -table 1
//	betrbench -table 1 -json      # also write BENCH_table1.json
//	betrbench -table 1 -json -o out.json
//	betrbench -validate out.json  # check a BENCH_*.json document
//
// With -json the run additionally emits a machine-readable document
// (schema in EXPERIMENTS.md): every measured cell next to the paper's
// value, plus each system's merged metric-counter snapshot. A system that
// fails to build or run is reported on stderr and the process exits
// non-zero after the remaining systems finish.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"betrfs/internal/bench"
	"betrfs/internal/blockdev"
	"betrfs/internal/metrics"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
	"betrfs/internal/systems"
)

func main() {
	table := flag.Int("table", 0, "reproduce a paper table (1, 2, or 3)")
	figure := flag.Int("figure", 0, "reproduce a paper figure (2)")
	hdd := flag.Bool("hdd", false, "run the HDD ablation")
	scale := flag.Int64("scale", bench.DefaultScale, "divide paper workload sizes by this factor")
	only := flag.String("systems", "", "comma-separated subset of systems to run: "+strings.Join(systems.Names(), ", "))
	jsonOut := flag.Bool("json", false, "also write a BENCH_<name>.json document")
	outPath := flag.String("o", "", "path for the JSON document (implies -json)")
	validate := flag.String("validate", "", "validate a BENCH_*.json document and exit")
	parallel := flag.Int("parallel", 1, "run systems on N worker goroutines (cells stay identical; adds a parallel section to the JSON)")
	clients := flag.Int("clients", 0, "run N concurrent client goroutines against one mount per system instead of the paper tables")
	serve := flag.Bool("serve", false, "drive -clients N sessions through the fsrpc wire path per system (deterministic with -workers 1)")
	serveWorkers := flag.Int("workers", 1, "server request workers for -serve (1 = deterministic round-robin mode)")
	aging := flag.Bool("aging", false, "run the FTL aging rung: create/delete churn past the over-provisioning point, TRIM vs no-TRIM control")
	agingChurn := flag.Float64("churn", 0, "aging churn volume as a multiple of device capacity (default 2.5)")
	shard := flag.Bool("shard", false, "run the multi-shard rung: a prefix-routed control plane over -shards simulated shard pairs (deterministic)")
	shards := flag.Int("shards", 3, "shard count for -shard")
	flag.Parse()
	if *scale < 1 {
		fmt.Fprintf(os.Stderr, "betrbench: -scale: must be at least 1, got %d\n", *scale)
		os.Exit(2)
	}

	if *validate != "" {
		if _, err := bench.ValidateFile(*validate); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid (schema v%d)\n", *validate, bench.SchemaVersion)
		return
	}
	if *outPath != "" {
		*jsonOut = true
	}

	var picked []string
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			s = strings.TrimSpace(s)
			if _, err := systems.Lookup(s); err != nil {
				fmt.Fprintln(os.Stderr, "betrbench: -systems:", err)
				os.Exit(2)
			}
			picked = append(picked, s)
		}
	}
	pick := func(all []string) []string {
		if picked == nil {
			return all
		}
		return picked
	}

	opts := runOpts{json: *jsonOut, outPath: *outPath, scale: *scale, parallel: *parallel}
	ok := true
	switch {
	case *shard:
		ok = runShardCmd(opts, *shards)
	case *aging:
		ok = runAging(pick(systems.Core), opts, *agingChurn)
	case *serve:
		ok = runServe(pick(systems.Core), opts, *clients, *serveWorkers)
	case *clients > 0:
		ok = runClients(pick([]string{"betrfs-v0.6"}), opts, *clients)
	case *table == 1:
		ok = runMicro(pick(systems.Table1), "table1", opts)
	case *table == 2:
		printLayout(*scale)
	case *table == 3:
		ok = runMicro(pick(systems.Ladder), "table3", opts)
	case *figure == 2:
		ok = runApps(pick(systems.Table1), "figure2", opts)
	case *hdd:
		ok = runMicro(systems.HDD, "hdd", opts)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

type runOpts struct {
	json     bool
	outPath  string
	scale    int64
	parallel int
}

func (o runOpts) jsonPath(name string) string {
	if o.outPath != "" {
		return o.outPath
	}
	return "BENCH_" + name + ".json"
}

// runSystem runs one system's benchmarks, converting a panic (a system
// that fails to build or mount mid-run) into an error so the harness can
// finish the other systems and still exit non-zero.
func runSystem(system string, f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", system, r)
		}
	}()
	f()
	return nil
}

func writeDoc(d *bench.Doc, path string) bool {
	if err := d.WriteFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "betrbench: %v\n", err)
		return false
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return true
}

func runMicro(names []string, name string, o runOpts) bool {
	fmt.Printf("microbenchmarks at scale 1/%d (paper: Table 1/3)\n\n", o.scale)
	return runRows(names, name, o, bench.RunMicroCollect, bench.WriteMicroTable, bench.MicroDoc)
}

func runApps(names []string, name string, o runOpts) bool {
	fmt.Printf("application benchmarks at scale 1/%d (paper: Figure 2)\n\n", o.scale)
	return runRows(names, name, o, bench.RunAppsCollect, bench.WriteAppTable, bench.AppDoc)
}

// runRows runs one row per system, sequentially or on o.parallel workers,
// prints the table and writes the document. A failed system is reported
// on stderr and makes the run fail after the others finish.
func runRows[R any](names []string, name string, o runOpts,
	collect func(string, int64) (R, metrics.Snapshot),
	table func(io.Writer, []R),
	doc func(string, int64, []R, []metrics.Snapshot) *bench.Doc) bool {
	var rows []R
	var snaps []metrics.Snapshot
	var info *bench.ParallelInfo
	ok := true
	if o.parallel > 1 {
		var allRows []R
		var allSnaps []metrics.Snapshot
		allRows, allSnaps, info = bench.RunParallel(names, o.scale, o.parallel, collect)
		for i, st := range info.Statuses {
			if st.OK {
				rows = append(rows, allRows[i])
				snaps = append(snaps, allSnaps[i])
			} else {
				fmt.Fprintf(os.Stderr, "betrbench: %s\n", st.Err)
				ok = false
			}
		}
	} else {
		for _, s := range names {
			fmt.Fprintf(os.Stderr, "running %s...\n", s)
			err := runSystem(s, func() {
				r, snap := collect(s, o.scale)
				rows = append(rows, r)
				snaps = append(snaps, snap)
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "betrbench: %v\n", err)
				ok = false
			}
		}
	}
	table(os.Stdout, rows)
	if o.json && len(rows) > 0 {
		d := doc(name, o.scale, rows, snaps)
		d.Parallel = info
		ok = writeDoc(d, o.jsonPath(name)) && ok
	}
	return ok
}

// runClients drives the multi-client smoke mode: N goroutines sharing one
// mount per system, with the betrfs background flusher pool active.
func runClients(systems []string, o runOpts, clients int) bool {
	workers := o.parallel
	if workers < 2 {
		workers = 2
	}
	fmt.Printf("multi-client mode: %d clients, %d pool workers, scale 1/%d\n\n", clients, workers, o.scale)
	fmt.Printf("%-14s %8s %10s %12s %12s %10s\n", "System", "Clients", "Ops", "SimTime", "WallTime", "kop/s(sim)")
	ok := true
	for _, s := range systems {
		r := bench.RunClients(s, o.scale, clients, workers)
		fmt.Printf("%-14s %8d %10d %12s %12s %10.1f\n",
			r.System, r.Clients, r.Ops, r.SimTime.Truncate(time.Microsecond),
			r.WallTime.Truncate(time.Microsecond), r.KOpsPerSimSec())
		for _, e := range r.Errors {
			fmt.Fprintf(os.Stderr, "betrbench: %s: %s\n", s, e)
			ok = false
		}
	}
	return ok
}

// runServe drives the wire-path benchmark: per system, an fsserve server
// over one mount with `clients` fsrpc sessions. workers == 1 is the
// deterministic round-robin mode whose JSON output is bit-identical run
// to run at a fixed seed.
func runServe(systems []string, o runOpts, clients, workers int) bool {
	if clients < 1 {
		clients = 8
	}
	mode := "deterministic round-robin"
	if workers > 1 {
		mode = "concurrent"
	}
	fmt.Printf("serve bench: %d clients over fsrpc, %d server workers (%s), scale 1/%d\n\n",
		clients, workers, mode, o.scale)
	var rows []bench.ServeResult
	var snaps []metrics.Snapshot
	ok := true
	for _, s := range systems {
		fmt.Fprintf(os.Stderr, "serving %s...\n", s)
		err := runSystem(s, func() {
			r, snap := bench.RunServe(s, o.scale, clients, workers)
			for _, e := range r.Errors {
				fmt.Fprintf(os.Stderr, "betrbench: %s: %s\n", s, e)
				ok = false
			}
			rows = append(rows, r)
			snaps = append(snaps, snap)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "betrbench: %v\n", err)
			ok = false
		}
	}
	bench.WriteServeTable(os.Stdout, rows)
	if o.json && len(rows) > 0 {
		d := bench.ServeDoc("serve", o.scale, rows, snaps)
		ok = writeDoc(d, o.jsonPath("serve")) && ok
	}
	return ok
}

// runAging drives the FTL churn rung: per system, identical create/delete
// churn against the TRIM-aware stack and a no-discard control FTL, so the
// table contrasts the aged write-amplification factors directly.
func runAging(systems []string, o runOpts, churn float64) bool {
	cfg := bench.DefaultAgingConfig()
	if churn > 0 {
		cfg.WriteMultiple = churn
	}
	fmt.Printf("FTL aging rung: %.1fx capacity churn, %d KiB files, scale 1/%d\n\n",
		cfg.WriteMultiple, cfg.FileBytes>>10, o.scale)
	var rows []bench.AgingResult
	var snaps []metrics.Snapshot
	ok := true
	for _, s := range systems {
		fmt.Fprintf(os.Stderr, "aging %s...\n", s)
		err := runSystem(s, func() {
			r, snap := bench.RunAging(s, o.scale, cfg)
			for _, e := range r.Errors {
				fmt.Fprintf(os.Stderr, "betrbench: %s: %s\n", s, e)
				ok = false
			}
			rows = append(rows, r)
			snaps = append(snaps, snap)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "betrbench: %v\n", err)
			ok = false
		}
	}
	bench.WriteAgingTable(os.Stdout, rows)
	if o.json && len(rows) > 0 {
		d := bench.AgingDoc("aging", o.scale, cfg, rows, snaps)
		ok = writeDoc(d, o.jsonPath("aging")) && ok
	}
	return ok
}

// runShardCmd drives the scale-out rung (DESIGN.md §14.5): a
// prefix-routed control plane over N shard pairs (file node + storage
// node per shard), write phase then cache-dropped read rounds, one table
// row and one snapshot per shard plus the deployment roll-up. Fully
// deterministic: the JSON document is bit-identical run to run.
func runShardCmd(o runOpts, shards int) bool {
	fmt.Printf("shard bench: %d shards of %s, prefix-routed, scale 1/%d\n\n",
		shards, bench.ShardSystem, o.scale)
	run := bench.RunShard(shards, o.scale)
	bench.WriteShardTable(os.Stdout, run)
	ok := true
	for _, e := range run.Errors {
		fmt.Fprintf(os.Stderr, "betrbench: shard: %s\n", e)
		ok = false
	}
	if o.json {
		d := bench.ShardDoc("shard", run)
		ok = writeDoc(d, o.jsonPath("shard")) && ok
	}
	return ok
}

func printLayout(scale int64) {
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(scale))
	s, err := sfl.NewDefault(env, dev)
	if err != nil {
		fmt.Fprintln(os.Stderr, "betrbench: layout:", err)
		os.Exit(1)
	}
	lay := s.Layout()
	fmt.Printf("SFL on-disk layout (paper: Table 2), device %d MiB:\n\n", dev.Size()>>20)
	fmt.Printf("%-12s %12s\n", "Name", "Size")
	for _, row := range []struct {
		name string
		size int64
	}{
		{"SuperBlock", lay.SuperBytes},
		{"Log", lay.LogBytes},
		{"Meta Index", lay.MetaBytes},
		{"Data Index", lay.DataBytes},
	} {
		fmt.Printf("%-12s %9d KiB\n", row.name, row.size>>10)
	}
}
