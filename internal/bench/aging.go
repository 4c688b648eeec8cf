package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"betrfs/internal/ftl"
	"betrfs/internal/metrics"
	"betrfs/internal/sfl"
	"betrfs/internal/southbound"
)

// Aging-rung mode: betrbench -aging drives an interleaved create/delete
// churn workload past the FTL's over-provisioning point, so garbage
// collection runs steadily and the write-amplification factor (io.waf)
// converges to the system's aged behavior. Each system runs twice on
// identical churn: once with TRIM flowing through (the default stack) and
// once against a no-discard control FTL (ftl.Config.DisableTrim), so the
// table shows directly how much lifetime each file system's discard
// plumbing buys. Single-worker runs at a fixed seed are deterministic:
// the churn sequence, the FTL's greedy GC, and therefore every counter in
// the document are bit-identical run to run.

// AgingConfig parameterizes the churn rung.
type AgingConfig struct {
	// FileBytes is the size of every churned file.
	FileBytes int64
	// WorkingSet is the number of files held live during churn; 0 sizes
	// it automatically to ~20% of the device capacity.
	WorkingSet int
	// WriteMultiple is the total churn volume as a multiple of the device
	// capacity — past 1.0 every physical flash block has been programmed
	// at least once, so GC (not the fresh-device free pool) supplies all
	// further space.
	WriteMultiple float64
	// Seed feeds the churn victim selector.
	Seed int64
}

// DefaultAgingConfig returns the standard rung: 64 KiB files, automatic
// working set, 2.5x device capacity of churn.
func DefaultAgingConfig() AgingConfig {
	return AgingConfig{FileBytes: 64 << 10, WriteMultiple: 2.5, Seed: 42}
}

// AgingResult is one system's aging row: the aged WAF with TRIM flowing
// and with the no-discard control, plus the flash-lifetime counters of
// the TRIM run.
type AgingResult struct {
	System       string
	WAF          float64 // flash bytes programmed / host bytes written, TRIM run
	WAFNoTrim    float64 // same churn against the DisableTrim control
	Erases       int64   // erase-block erasures, TRIM run
	ErasesNoTrim int64
	GCMovedMB    float64 // valid pages migrated by GC, TRIM run
	TrimmedMB    float64 // bytes the system handed back via discard
	WorkingSet   int
	FileBytes    int64
	WallTime     time.Duration
	Errors       []string
}

// runAgingOnce churns one system over one FTL configuration and returns
// the final metric snapshot.
func runAgingOnce(system string, scale int64, cfg AgingConfig, disableTrim bool) (snap metrics.Snapshot, ws int, errs []string) {
	defer func() {
		if r := recover(); r != nil {
			errs = append(errs, fmt.Sprintf("%s: panic: %v", system, r))
		}
	}()
	fcfg := ftl.DefaultConfig()
	fcfg.DisableTrim = disableTrim
	in := buildFTL(system, scale, 0, fcfg) // workers 0: deterministic mode
	capacity := in.Dev.Size()

	ws = cfg.WorkingSet
	if ws <= 0 {
		// ~30% utilization of the space the system can actually allocate
		// from. For the BetrFS generations that is the Bε-tree data file,
		// not the raw device — and their copy-on-write checkpoints keep
		// both node versions alive transiently, so the fraction applies
		// to half the data region.
		base := capacity
		switch {
		case strings.HasPrefix(system, "betrfs-v0.4"):
			// The southbound data file is smaller still (ext4 headroom is
			// carved out first) and first-fit fragmentation of ~4 MiB node
			// extents costs proportionally more there.
			base = southbound.DefaultLayout(capacity).DataBytes / 4
		case strings.HasPrefix(system, "betrfs"):
			base = sfl.DefaultLayout(capacity).DataBytes / 2
		}
		ws = int(base * 3 / 10 / cfg.FileBytes)
	}
	if ws < 8 {
		ws = 8
	}
	churnOps := int(float64(capacity)*cfg.WriteMultiple/float64(cfg.FileBytes)) - ws
	if churnOps < ws {
		churnOps = ws
	}

	// Incompressible payload, refreshed per write from the seeded stream:
	// a repeating pattern would compress inside the Bε-tree and the churn
	// would stop short of the configured device-capacity multiple.
	rng := rand.New(rand.NewSource(cfg.Seed))
	payload := make([]byte, cfg.FileBytes)
	// Every file is fsynced: churn must actually reach the flash to age
	// it — without per-file durability the page cache absorbs removed
	// files before writeback ever sends them down.
	writeFile := func(path string) {
		rng.Read(payload)
		f, err := in.Mount.Create(path)
		if err != nil {
			panic(fmt.Sprintf("create %s: %v", path, err))
		}
		if _, err := f.Write(payload); err != nil {
			panic(fmt.Sprintf("write %s: %v", path, err))
		}
		if err := f.Fsync(); err != nil {
			panic(fmt.Sprintf("fsync %s: %v", path, err))
		}
		f.Close()
	}

	paths := make([]string, ws)
	for i := range paths {
		paths[i] = fmt.Sprintf("churn/f%05d", i)
	}
	if err := in.Mount.MkdirAll("churn"); err != nil {
		panic(fmt.Sprintf("mkdir: %v", err))
	}
	for _, p := range paths {
		writeFile(p)
	}
	for op := 0; op < churnOps; op++ {
		i := rng.Intn(ws)
		if err := in.Mount.Remove(paths[i]); err != nil {
			panic(fmt.Sprintf("remove %s: %v", paths[i], err))
		}
		writeFile(paths[i])
		if op%64 == 63 {
			in.Mount.Sync()
		}
	}
	in.Mount.Sync()
	return in.Env.Metrics.Snapshot(), ws, nil
}

// RunAging runs the churn rung on system twice — TRIM-aware and
// no-discard control — and reports the aged WAF contrast. The returned
// snapshot is the TRIM run's.
func RunAging(system string, scale int64, cfg AgingConfig) (AgingResult, metrics.Snapshot) {
	wallStart := time.Now()
	snap, ws, errs := runAgingOnce(system, scale, cfg, false)
	ctrl, _, cerrs := runAgingOnce(system, scale, cfg, true)
	out := AgingResult{
		System:     system,
		WorkingSet: ws,
		FileBytes:  cfg.FileBytes,
		WallTime:   time.Since(wallStart),
		Errors:     append(errs, cerrs...),
	}
	out.WAF = float64(snap.Gauges["io.waf"]) / 1000
	out.WAFNoTrim = float64(ctrl.Gauges["io.waf"]) / 1000
	out.Erases = snap.Counters["ftl.erase.count"]
	out.ErasesNoTrim = ctrl.Counters["ftl.erase.count"]
	out.GCMovedMB = float64(snap.Counters["ftl.gc.moved.bytes"]) / (1 << 20)
	out.TrimmedMB = float64(snap.Counters["ftl.trim.bytes"]) / (1 << 20)
	return out, snap
}

var agingColumns = []column[AgingResult]{
	{"waf", "x", true, func(r AgingResult) float64 { return r.WAF }},
	{"waf_notrim", "x", true, func(r AgingResult) float64 { return r.WAFNoTrim }},
	{"erases", "blk", true, func(r AgingResult) float64 { return float64(r.Erases) }},
	{"erases_notrim", "blk", true, func(r AgingResult) float64 { return float64(r.ErasesNoTrim) }},
	{"gc_moved", "MB", true, func(r AgingResult) float64 { return r.GCMovedMB }},
	{"trimmed", "MB", false, func(r AgingResult) float64 { return r.TrimmedMB }},
}

// WriteAgingTable renders the human-readable aging table.
func WriteAgingTable(w io.Writer, rows []AgingResult) {
	fmt.Fprintf(w, "%-14s", "system")
	for _, c := range agingColumns {
		fmt.Fprintf(w, " | %18s", fmt.Sprintf("%s (%s)", c.Name, c.Unit))
	}
	fmt.Fprintf(w, " | %10s\n", "wall")
	fmt.Fprintln(w, strings.Repeat("-", 14+len(agingColumns)*21+13))
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s", r.System)
		for _, c := range agingColumns {
			fmt.Fprintf(w, " | %18.2f", c.Get(r))
		}
		fmt.Fprintf(w, " | %10s\n", r.WallTime.Truncate(time.Millisecond))
	}
}
