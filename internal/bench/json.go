package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"betrfs/internal/metrics"
)

// Machine-readable benchmark output. Every betrbench run can emit, next to
// the human table, a BENCH_<name>.json document pairing each measured cell
// with the paper's published value and each system's merged metric
// snapshot (the counters from every layer the run exercised). The schema
// is documented in EXPERIMENTS.md and validated by Validate; downstream
// tooling should reject documents whose SchemaVersion it does not know.

// SchemaVersion identifies the BENCH_*.json document layout. Bump it on
// any incompatible change and update EXPERIMENTS.md in the same commit.
//
// Version history:
//
//	1 — initial layout (columns, systems, optional parallel/serve info)
//	2 — betrfs system rows guarantee the device-health counter families
//	    `io.defect.*` and `scrub.repair.*` in their metric snapshots, so
//	    the benchmark trajectory records grown defects and repairs;
//	    Validate enforces their presence
//	3 — systems run over the simulated FTL (identified by the
//	    `ftl.write.host.bytes` marker counter) guarantee the full flash
//	    lifetime family — `ftl.write.*`, `ftl.gc.*`, `ftl.erase.count`,
//	    `ftl.trim.*` — plus the `io.waf` write-amplification gauge;
//	    adds the "aging" kind and its `aging` config section
//	4 — serve documents guarantee the pipelining instruments in every
//	    system snapshot: the `fsrpc.pipeline.depth` and
//	    `fsserve.batch.replies` histograms, the `fsserve.zerocopy.bytes`
//	    counter, and the `fsrpc.inflight` gauge; the serve section gains
//	    optional `window`/`streams` fields recording the pipelined pass
//	    (absent on deterministic single-worker documents, whose measured
//	    cells are unchanged from v3)
//	5 — serve documents guarantee the session-resilience families in
//	    every system snapshot: the client redial counters
//	    `fsrpc.redial.attempt`, `fsrpc.redial.success`,
//	    `fsrpc.redial.giveup` and the server duplicate-reply-cache
//	    counters `fsserve.drc.hit`, `fsserve.drc.miss`,
//	    `fsserve.drc.evict` (DESIGN.md §13.9) — all zero on fault-free
//	    runs, but their presence proves the resilient wire path
//	    produced the document; measured cells are unchanged from v4
//	6 — adds the "shard" kind and its `shard` config section
//	    (DESIGN.md §14): one system row per shard, each snapshot
//	    guaranteed to carry the read-cache counters `readcache.hit`,
//	    `readcache.miss`, `readcache.evict`; Validate enforces the
//	    roll-up — the shard section's rc_* totals must equal the sums
//	    over the per-shard rows — and that the workload's cold re-read
//	    rounds produced at least one read-cache hit; documents of other
//	    kinds are unchanged from v5
const SchemaVersion = 6

// Doc is one benchmark run: a set of columns measured across a set of
// systems, plus per-system metric snapshots.
type Doc struct {
	SchemaVersion int            `json:"schema_version"`
	Name          string         `json:"name"` // e.g. "table1", "figure2"
	Kind          string         `json:"kind"` // "micro" or "apps"
	Scale         int64          `json:"scale"`
	Columns       []ColumnMeta   `json:"columns"`
	Systems       []SystemResult `json:"systems"`
	// Parallel is present when the run used the parallel system runner
	// (betrbench -parallel): worker count, per-system exit status, and
	// the runner's bench.parallel.* counters. Optional and additive, so
	// it needs no SchemaVersion bump of its own; sequential runs omit it
	// and their documents are byte-identical to pre-parallel output.
	Parallel *ParallelInfo `json:"parallel,omitempty"`
	// Serve is present when Kind is "serve" (betrbench -serve): the
	// wire-path run's client/worker configuration. Optional and additive
	// like Parallel, so it needs no SchemaVersion bump of its own.
	Serve *ServeInfo `json:"serve,omitempty"`
	// Aging is present when Kind is "aging" (betrbench -aging): the
	// churn rung's workload configuration (schema v3).
	Aging *AgingInfo `json:"aging,omitempty"`
	// Shard is present when Kind is "shard" (betrbench -shard): the
	// multi-shard rung's deployment configuration and read-cache roll-up
	// (schema v6).
	Shard *ShardInfo `json:"shard,omitempty"`
}

// ShardInfo records the shard-rung configuration and the deployment
// roll-up of the read-cache counters; Validate cross-checks the totals
// against the per-shard system rows, so a document whose roll-up
// disagrees with its own shards is rejected.
type ShardInfo struct {
	Shards        int    `json:"shards"`
	System        string `json:"system"` // the per-shard stack, e.g. "betrfs-v0.6"
	ReadRounds    int    `json:"read_rounds"`
	Deterministic bool   `json:"deterministic"`
	RcHit         int64  `json:"rc_hit"`
	RcMiss        int64  `json:"rc_miss"`
	RcEvict       int64  `json:"rc_evict"`
}

// AgingInfo records the aging-rung configuration: the create/delete churn
// that pushes the FTL past its over-provisioning point. Deterministic
// marks the single-worker mode whose documents are bit-identical run to
// run at a fixed seed.
type AgingInfo struct {
	FileBytes     int64   `json:"file_bytes"`
	WorkingSet    int     `json:"working_set"`    // files held live during churn
	WriteMultiple float64 `json:"write_multiple"` // churn volume as a multiple of device capacity
	Seed          int64   `json:"seed"`
	Deterministic bool    `json:"deterministic"`
}

// ServeInfo records the serve-bench configuration. Deterministic marks the
// single-worker round-robin mode whose documents are bit-identical run to
// run at a fixed seed. Window and Streams (schema v4) record the pipelined
// pass — the client's in-flight window and the scripts multiplexed per
// connection — and are absent on deterministic documents.
type ServeInfo struct {
	Clients       int  `json:"clients"`
	Workers       int  `json:"workers"`
	Deterministic bool `json:"deterministic"`
	Window        int  `json:"window,omitempty"`
	Streams       int  `json:"streams,omitempty"`
}

// ColumnMeta describes one benchmark column.
type ColumnMeta struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`   // "MB/s", "kop/s", "op/s", "s"
	Better string `json:"better"` // "higher" or "lower"
}

// CellJSON is one measured value with its paper reference (0 when the
// paper does not report the cell).
type CellJSON struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Paper float64 `json:"paper,omitempty"`
}

// SystemResult is one system's row: its cells in column order and the
// merged metric snapshot of every instance the benchmarks built for it.
type SystemResult struct {
	System  string           `json:"system"`
	Cells   []CellJSON       `json:"cells"`
	Metrics metrics.Snapshot `json:"metrics"`
}

func better(lower bool) string {
	if lower {
		return "lower"
	}
	return "higher"
}

// newDoc lays rows out under cols, naming each row by system and, when
// paper is non-nil, pairing its cells with the paper's reference row.
// snaps[i] belongs to rows[i] (it may be shorter — trailing systems then
// carry empty snapshots, which Validate rejects, so callers should pass one
// per row).
func newDoc[R any](name, kind string, scale int64, cols []column[R], rows []R, snaps []metrics.Snapshot,
	system func(R) string, paper func(R) (R, bool)) *Doc {
	d := &Doc{SchemaVersion: SchemaVersion, Name: name, Kind: kind, Scale: scale}
	for _, c := range cols {
		d.Columns = append(d.Columns, ColumnMeta{Name: c.Name, Unit: c.Unit, Better: better(c.Lower)})
	}
	for i, r := range rows {
		sr := SystemResult{System: system(r)}
		var ref R
		hasRef := false
		if paper != nil {
			ref, hasRef = paper(r)
		}
		for _, c := range cols {
			cell := CellJSON{Name: c.Name, Value: c.Get(r)}
			if hasRef {
				cell.Paper = c.Get(ref)
			}
			sr.Cells = append(sr.Cells, cell)
		}
		if i < len(snaps) {
			sr.Metrics = snaps[i]
		}
		d.Systems = append(d.Systems, sr)
	}
	return d
}

// MicroDoc assembles a Doc from Table 1/3 rows; snaps[i] belongs to rows[i].
func MicroDoc(name string, scale int64, rows []MicroResults, snaps []metrics.Snapshot) *Doc {
	return newDoc(name, "micro", scale, microColumns, rows, snaps,
		func(r MicroResults) string { return r.System },
		func(r MicroResults) (MicroResults, bool) { p, ok := PaperMicro[r.System]; return p, ok })
}

// AppDoc assembles a Doc from Figure 2 rows; snaps[i] belongs to rows[i].
func AppDoc(name string, scale int64, rows []AppResults, snaps []metrics.Snapshot) *Doc {
	return newDoc(name, "apps", scale, appColumns, rows, snaps, func(r AppResults) string { return r.System }, nil)
}

// ServeDoc assembles a Doc from serve-bench rows; snaps[i] belongs to
// rows[i].
func ServeDoc(name string, scale int64, rows []ServeResult, snaps []metrics.Snapshot) *Doc {
	d := newDoc(name, "serve", scale, serveColumnsFor(rows), rows, snaps, func(r ServeResult) string { return r.System }, nil)
	if len(rows) > 0 {
		r := rows[0]
		d.Serve = &ServeInfo{Clients: r.Clients, Workers: r.Workers, Deterministic: r.Workers <= 1, Window: r.Window, Streams: r.Streams}
	}
	return d
}

// ShardDoc assembles a Doc from one multi-shard rung: one system row per
// shard (named "shard00", "shard01", …) carrying that shard's merged
// snapshot, plus the shard section with the deployment roll-up.
func ShardDoc(name string, run ShardRun) *Doc {
	d := newDoc(name, "shard", run.Scale, shardColumns, run.Rows, run.Snaps,
		func(r ShardResult) string { return fmt.Sprintf("shard%02d", r.Shard) }, nil)
	d.Shard = &ShardInfo{
		Shards:        run.Shards,
		System:        ShardSystem,
		ReadRounds:    shardReadRounds,
		Deterministic: true,
		RcHit:         run.Total.Counters["readcache.hit"],
		RcMiss:        run.Total.Counters["readcache.miss"],
		RcEvict:       run.Total.Counters["readcache.evict"],
	}
	return d
}

// AgingDoc assembles a Doc from aging-rung rows; snaps[i] belongs to
// rows[i].
func AgingDoc(name string, scale int64, cfg AgingConfig, rows []AgingResult, snaps []metrics.Snapshot) *Doc {
	d := newDoc(name, "aging", scale, agingColumns, rows, snaps, func(r AgingResult) string { return r.System }, nil)
	if len(rows) > 0 {
		d.Aging = &AgingInfo{FileBytes: rows[0].FileBytes, WorkingSet: rows[0].WorkingSet,
			WriteMultiple: cfg.WriteMultiple, Seed: cfg.Seed, Deterministic: true}
	}
	return d
}

// Marshal renders the document exactly as WriteFile stores it.
func (d *Doc) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile stores the document at path.
func (d *Doc) WriteFile(path string) error {
	b, err := d.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Validate checks that data is a well-formed BENCH_*.json document: it
// must strict-decode into the schema (unknown fields are errors), satisfy
// the structural invariants, and re-marshal byte-identically — so a file
// that passes was produced by (or is indistinguishable from) WriteFile,
// and every field it carries is one the schema documents.
func Validate(data []byte) (*Doc, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d Doc
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("bench json: decode: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("bench json: trailing data after document")
	}
	if d.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("bench json: schema_version %d, want %d", d.SchemaVersion, SchemaVersion)
	}
	if d.Name == "" {
		return nil, fmt.Errorf("bench json: empty name")
	}
	known := false
	for _, k := range docKinds {
		known = known || d.Kind == k.kind
		if k.section != nil && k.section(&d) != (d.Kind == k.kind) {
			return nil, fmt.Errorf("bench json: kind %q document: every kind %q document has a %s section, and no other", d.Kind, k.kind, k.kind)
		}
	}
	if !known {
		return nil, fmt.Errorf("bench json: kind %q, want \"micro\", \"apps\", \"serve\", \"aging\", or \"shard\"", d.Kind)
	}
	if d.Serve != nil {
		if d.Serve.Clients < 1 || d.Serve.Workers < 1 {
			return nil, fmt.Errorf("bench json: serve section clients %d / workers %d, want >= 1", d.Serve.Clients, d.Serve.Workers)
		}
		if d.Serve.Window < 0 || d.Serve.Streams < 0 {
			return nil, fmt.Errorf("bench json: serve section window %d / streams %d, want >= 0", d.Serve.Window, d.Serve.Streams)
		}
		if d.Serve.Deterministic && d.Serve.Streams > 0 {
			return nil, fmt.Errorf("bench json: deterministic serve document cannot carry a pipelined pass (streams %d)", d.Serve.Streams)
		}
	}
	if d.Aging != nil {
		if d.Aging.FileBytes < 1 || d.Aging.WorkingSet < 1 || d.Aging.WriteMultiple <= 0 {
			return nil, fmt.Errorf("bench json: aging section file_bytes %d / working_set %d / write_multiple %g, want positive",
				d.Aging.FileBytes, d.Aging.WorkingSet, d.Aging.WriteMultiple)
		}
	}
	if d.Shard != nil {
		if d.Shard.Shards < 1 || d.Shard.Shards != len(d.Systems) {
			return nil, fmt.Errorf("bench json: shard section shards %d, want one per system row (%d)", d.Shard.Shards, len(d.Systems))
		}
		if d.Shard.System == "" || d.Shard.ReadRounds < 1 {
			return nil, fmt.Errorf("bench json: shard section missing system or read_rounds")
		}
		// The cold re-read rounds must have produced read-cache hits; a
		// shard document with none was not measuring the cached remote
		// block path it claims to.
		if d.Shard.RcHit < 1 {
			return nil, fmt.Errorf("bench json: shard document with rc_hit %d, want >= 1", d.Shard.RcHit)
		}
	}
	if d.Scale < 1 {
		return nil, fmt.Errorf("bench json: scale %d < 1", d.Scale)
	}
	if len(d.Columns) == 0 {
		return nil, fmt.Errorf("bench json: no columns")
	}
	for _, c := range d.Columns {
		if c.Name == "" || c.Unit == "" {
			return nil, fmt.Errorf("bench json: column %+v missing name or unit", c)
		}
		if c.Better != "higher" && c.Better != "lower" {
			return nil, fmt.Errorf("bench json: column %q: better %q, want \"higher\" or \"lower\"", c.Name, c.Better)
		}
	}
	if len(d.Systems) == 0 {
		return nil, fmt.Errorf("bench json: no systems")
	}
	for _, s := range d.Systems {
		if s.System == "" {
			return nil, fmt.Errorf("bench json: system with empty name")
		}
		if len(s.Cells) != len(d.Columns) {
			return nil, fmt.Errorf("bench json: system %q has %d cells, want %d", s.System, len(s.Cells), len(d.Columns))
		}
		for i, c := range s.Cells {
			if c.Name != d.Columns[i].Name {
				return nil, fmt.Errorf("bench json: system %q cell %d named %q, want %q", s.System, i, c.Name, d.Columns[i].Name)
			}
		}
		if len(s.Metrics.Counters) == 0 {
			return nil, fmt.Errorf("bench json: system %q has an empty metric snapshot", s.System)
		}
		for _, f := range requiredMetrics {
			if _, marked := s.Metrics.Counters[f.marker]; d.Kind != f.kind && !(marked && f.marker != "") {
				continue
			}
			key := missing(s.Metrics.Counters, f.counters)
			if key == "" {
				key = missing(s.Metrics.Histograms, f.histograms)
			}
			if key == "" {
				key = missing(s.Metrics.Gauges, f.gauges)
			}
			if key != "" {
				return nil, fmt.Errorf("bench json: %s %q missing %s in its metric snapshot", f.family, s.System, key)
			}
		}
	}
	// Schema v6: the shard section's roll-up must be exactly the sum of
	// the per-shard rows it travels with.
	if d.Shard != nil {
		var hit, miss, evict int64
		for _, s := range d.Systems {
			hit += s.Metrics.Counters["readcache.hit"]
			miss += s.Metrics.Counters["readcache.miss"]
			evict += s.Metrics.Counters["readcache.evict"]
		}
		if hit != d.Shard.RcHit || miss != d.Shard.RcMiss || evict != d.Shard.RcEvict {
			return nil, fmt.Errorf("bench json: shard roll-up rc %d/%d/%d disagrees with the per-shard sums %d/%d/%d",
				d.Shard.RcHit, d.Shard.RcMiss, d.Shard.RcEvict, hit, miss, evict)
		}
	}
	if p := d.Parallel; p != nil {
		if p.Workers < 1 {
			return nil, fmt.Errorf("bench json: parallel.workers %d < 1", p.Workers)
		}
		// A failed system carries a status but no result row, so the OK
		// statuses must match d.Systems in order and the failed ones must
		// explain themselves.
		var okStatuses []string
		for _, st := range p.Statuses {
			if st.OK {
				okStatuses = append(okStatuses, st.System)
			} else if st.Err == "" {
				return nil, fmt.Errorf("bench json: failed system %q missing error text", st.System)
			}
		}
		if len(okStatuses) != len(d.Systems) {
			return nil, fmt.Errorf("bench json: %d ok parallel statuses, want %d (one per system row)", len(okStatuses), len(d.Systems))
		}
		for i, name := range okStatuses {
			if name != d.Systems[i].System {
				return nil, fmt.Errorf("bench json: parallel status %d for %q, want %q", i, name, d.Systems[i].System)
			}
		}
	}
	remarshaled, err := d.Marshal()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(bytes.TrimRight(data, "\n"), bytes.TrimRight(remarshaled, "\n")) {
		return nil, fmt.Errorf("bench json: document does not round-trip the schema (field order, formatting, or extraneous content differs from the canonical encoding)")
	}
	return &d, nil
}

// docKinds lists every document kind with the section only it carries
// (nil: none): Validate requires a kind's section and refuses it on any
// other kind.
var docKinds = []struct {
	kind    string
	section func(*Doc) bool
}{
	{"micro", nil},
	{"apps", nil},
	{"serve", func(d *Doc) bool { return d.Serve != nil }},
	{"aging", func(d *Doc) bool { return d.Aging != nil }},
	{"shard", func(d *Doc) bool { return d.Shard != nil }},
}

// requiredMetrics lists the metric families a row must carry, so tooling
// can chart them without probing for keys. A row is in a family when it
// carries the family's marker counter or the document is of its kind.
var requiredMetrics = []struct {
	family, marker, kind         string
	counters, histograms, gauges []string
}{
	// Schema v2: betree-backed rows carry the device-health families.
	{family: "betree-backed system", marker: "betree.node.write", counters: []string{
		"io.defect.grown", "io.defect.bytes", "io.defect.relocate.write",
		"scrub.repair.run", "scrub.repair.node", "scrub.repair.fail",
	}},
	// Schemas v4 and v5: serve rows carry the pipelining and resilience
	// instruments fsserve.New and the bench's clients always register, so
	// their absence means the document did not come from the wire path.
	{family: "serve system", kind: "serve", counters: []string{
		"fsserve.zerocopy.bytes",
		"fsrpc.redial.attempt", "fsrpc.redial.success", "fsrpc.redial.giveup",
		"fsserve.drc.hit", "fsserve.drc.miss", "fsserve.drc.evict",
	}, histograms: []string{"fsrpc.pipeline.depth", "fsserve.batch.replies"}, gauges: []string{"fsrpc.inflight"}},
	// Schema v6: every shard row carries the read-cache counters its file
	// node registers, so the roll-up check is possible in-document.
	{family: "shard row", kind: "shard", counters: []string{"readcache.hit", "readcache.miss", "readcache.evict"}},
	// Schema v3: FTL-backed rows carry the flash lifetime family and the
	// write-amplification gauge.
	{family: "FTL-backed system", marker: "ftl.write.host.bytes", counters: []string{
		"ftl.write.flash.bytes", "ftl.gc.run", "ftl.gc.moved.pages",
		"ftl.gc.moved.bytes", "ftl.erase.count", "ftl.trim.count", "ftl.trim.bytes",
	}, gauges: []string{"io.waf"}},
}

// missing returns the first of keys absent from m, or "".
func missing[V any](m map[string]V, keys []string) string {
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			return k
		}
	}
	return ""
}

// ValidateFile runs Validate on the file at path.
func ValidateFile(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Validate(data)
}
