package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// A trial is one fresh instance of one workload: set-up, the measured
// phases, verification. Each trial runs in its own process (main.go), so
// its heap, its peak RSS and its rusage deltas are its own.

type trialConfig struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	Smoke    bool   `json:"smoke"`
	// SetupOnly makes the trial a series of set-ups and nothing else: the
	// setup_s samples.
	SetupOnly bool `json:"setup_only"`
	// Deterministic makes a serve_mix trial the one that yields the
	// simulated metrics: the same op streams, against the single-goroutine
	// serving configuration (serve.go).
	Deterministic bool   `json:"deterministic"`
	TraceOut      string `json:"trace_out"` // Chrome trace path, traced trials
}

// The four kinds of measured phase. sim_write_s and sim_read_s sum the
// phases of their kind; tree_ops alone has the other two, which the traced
// run reports as ns.rename.sim_s and ns.delete.sim_s.
const (
	kindWrite  = "write"
	kindRead   = "read"
	kindRename = "rename"
	kindDelete = "delete"
)

// trialResult is what a trial process hands back to its parent.
type trialResult struct {
	Config trialConfig `json:"config"`
	SetupS float64     `json:"setup_s"`
	// SetupSamples is set by a SetupOnly trial: one sample per repetition
	// after the first.
	SetupSamples []float64 `json:"setup_samples,omitempty"`

	// Over the measured phases.
	SimNs       map[string]int64 `json:"sim_ns"` // by phase kind
	SimMaxOpNs  int64            `json:"sim_max_op_ns"`
	WallNs      int64            `json:"wall_ns"`
	CPUNs       int64            `json:"cpu_ns"`
	Mallocs     uint64           `json:"mallocs"`
	AllocBytes  uint64           `json:"alloc_bytes"`
	Attempted   int64            `json:"attempted"`
	Ops         int64            `json:"ops"` // the attempted ops the figures above cover
	Failed      int64            `json:"failed"`
	Notes       []string         `json:"notes,omitempty"` // first few failures
	UserWritten int64            `json:"user_written"`
	UserRead    int64            `json:"user_read"`
	// write_amp's and read_amp's numerators: bytes programmed to flash over
	// the mutating phases, bytes read from the device over the read phase.
	FlashBytes   int64 `json:"flash_bytes"`
	DevReadBytes int64 `json:"dev_read_bytes"`
	P50Ns        int64 `json:"p50_ns"`
	// The tail is printed, not gated: README.md "Bounds".
	P95Ns     int64            `json:"p95_ns"`
	P99Ns     int64            `json:"p99_ns"`
	Samples   int              `json:"samples"`
	Counts    map[string]int64 `json:"counts"` // registry, flattened
	DevBusyNs int64            `json:"dev_busy_ns"`
	PeakRSSKB int64            `json:"peak_rss_kb"`

	// Traced trials of the simulated workloads.
	Layers      map[string]layerAgg `json:"layers,omitempty"`
	EngineIO    map[string]int64    `json:"engine_io,omitempty"`
	MappedBytes int64               `json:"mapped_bytes,omitempty"`

	// serve_mix.
	Transport string             `json:"transport,omitempty"`
	ClassP50  map[string]float64 `json:"class_p50_us,omitempty"`
	ClassP99  map[string]float64 `json:"class_p99_us,omitempty"`
	Wire      map[string]int64   `json:"wire,omitempty"` // traced
}

type trial struct {
	cfg trialConfig
	sz  sizing
	st  *stack
	tr  *tracer
	res trialResult

	wrapFS   func(vfsFS) vfsFS
	start    time.Time
	measured snapshot // registry deltas merged over the measured phases
	lat      []int64  // host ns of every latency sample
	check    checker

	// The open op and the open phase.
	opSim, opHost int64
	ph            struct {
		kind string
		sim  int64
		wall time.Time
		cpu  int64
		busy int64
		ms   runtime.MemStats
		snap snapshot
	}
}

// runTrial runs one trial in this process.
func runTrial(cfg trialConfig) (*trialResult, error) { return runTrialOn(cfg, nil) }

// runTrialOn is runTrial with the simulated workloads' vfs.FS seam
// decorated by wrapFS, for tests that need the stack to misbehave.
func runTrialOn(cfg trialConfig, wrapFS func(vfsFS) vfsFS) (*trialResult, error) {
	if cfg.SetupOnly {
		return runSetups(cfg, wrapFS)
	}
	t, err := runWorkload(cfg, wrapFS)
	if err != nil {
		return nil, err
	}
	return t.finish()
}

// runSetups times set-up alone, repeatedly in this one process: once
// unrecorded, to fault in the heap and warm what a fresh process has cold
// (that cost follows the host's state, not the code's), then until there
// are 25 samples, or at least three and two seconds gone. A set-up of a few
// milliseconds needs the many: some repetitions pay for the garbage of the
// one before, and the median must not be one of those.
func runSetups(cfg trialConfig, wrapFS func(vfsFS) vfsFS) (*trialResult, error) {
	var res *trialResult
	var spent float64
	for {
		t, err := runWorkload(cfg, wrapFS)
		if err != nil {
			return nil, err
		}
		if res == nil {
			res = &t.res
			continue
		}
		res.SetupSamples = append(res.SetupSamples, t.res.SetupS)
		spent += t.res.SetupS
		if n := len(res.SetupSamples); n >= 25 || n >= 3 && spent >= 2 || cfg.Smoke {
			return res, nil
		}
	}
}

// runWorkload runs cfg's workload on a fresh trial: all of it, or with
// SetupOnly its set-up.
func runWorkload(cfg trialConfig, wrapFS func(vfsFS) vfsFS) (*trial, error) {
	t := &trial{cfg: cfg, sz: sizingFor(cfg.Smoke), start: time.Now(), wrapFS: wrapFS}
	t.res.Config = cfg
	t.res.SimNs = map[string]int64{}
	var err error
	switch cfg.Workload {
	case "seq_io":
		err = t.seqIO()
	case "rand_io":
		err = t.randIO()
	case "tree_ops":
		err = t.treeOps()
	case "serve_mix":
		err = t.serveMix()
	default:
		err = fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	return t, nil
}

// build makes the simulated workloads' stack, traced when asked.
func (t *trial) build(o stackOpts) error {
	o.wrapFS = t.wrapFS
	if t.cfg.Traced {
		t.tr = newTracer(t.hostNow)
		o.tr = t.tr
	}
	st, err := buildStack(o)
	t.st = st
	return err
}

func (t *trial) hostNow() int64 { return int64(time.Since(t.start)) }

// setupDone ends set-up. It reports whether the trial stops here. The
// measured phases start from a collected heap, so that what set-up left
// behind is not collected on their time or counted in their peak by luck;
// the collection itself is not set-up's work and not on its time.
func (t *trial) setupDone() bool {
	t.res.SetupS = time.Since(t.start).Seconds()
	runtime.GC()
	return t.cfg.SetupOnly
}

// begin and end bracket one op: one call from the generator into the
// mount or a file. They are plain calls, not a closure, so that timing an
// op allocates nothing.
func (t *trial) begin(op string) {
	if t.tr != nil {
		t.tr.begin(layerVFS, op)
	}
	t.opSim, t.opHost = t.st.simNow(), t.hostNow()
}

func (t *trial) end(op string, err error) {
	sim := t.st.simNow()
	if t.tr != nil {
		t.tr.end()
	}
	if d := sim - t.opSim; d > t.res.SimMaxOpNs {
		t.res.SimMaxOpNs = d
	}
	t.res.Attempted++
	if err != nil {
		t.fail("%s: %v", op, err)
	}
}

// endRead is end for the read phase's calls that return what was asked for
// (Read, ReadAt, a cold ReadDir), the ops whose host time is a latency
// sample. (A write returns when the page cache has it, in a microsecond or
// two whatever the engine does with it later, and an open, a close or a
// stat of a cached name is a map look-up; what those cost the host is in
// host_cpu_s.)
func (t *trial) endRead(op string, err error) {
	t.lat = append(t.lat, t.hostNow()-t.opHost)
	t.end(op, err)
}

// spanOnly and spanEnd bracket a call that is no measured op: it moves the
// simulated clock, so a traced trial must span it, but it is neither
// counted nor timed.
func (t *trial) spanOnly(op string) {
	if t.tr != nil {
		t.tr.begin(layerVFS, op)
	}
}

func (t *trial) spanEnd(op string, err error) {
	if t.tr != nil {
		t.tr.end()
	}
	if err != nil {
		t.fail("%s (not an op): %v", op, err)
	}
}

// fail counts one failed op: an error, or output that does not verify.
func (t *trial) fail(format string, args ...any) {
	t.res.Failed++
	if len(t.res.Notes) < 5 {
		t.res.Notes = append(t.res.Notes, fmt.Sprintf(format, args...))
	}
}

// dropCaches is the cold-cache step between phases. It is no op (neither
// counted nor timed), but it moves the simulated clock, so it is spanned.
func (t *trial) dropCaches() {
	t.spanOnly("drop_caches")
	t.st.mount.DropCaches()
	t.spanEnd("drop_caches", nil)
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func (t *trial) startPhase(kind string) {
	t.ph.kind = kind
	t.ph.snap = t.st.snapshot()
	runtime.ReadMemStats(&t.ph.ms)
	t.ph.cpu = cpuNow()
	t.ph.busy = t.st.devBusyNs()
	t.ph.sim = t.st.simNow()
	t.ph.wall = time.Now()
	if t.tr != nil {
		t.tr.measured = true
	}
}

func (t *trial) endPhase() {
	if t.tr != nil {
		t.tr.measured = false
	}
	t.res.WallNs += int64(time.Since(t.ph.wall))
	t.res.SimNs[t.ph.kind] += t.st.simNow() - t.ph.sim
	t.res.CPUNs += cpuNow() - t.ph.cpu
	t.res.DevBusyNs += t.st.devBusyNs() - t.ph.busy
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.res.Mallocs += ms.Mallocs - t.ph.ms.Mallocs
	t.res.AllocBytes += ms.TotalAlloc - t.ph.ms.TotalAlloc
	d := mergeDiff(&t.measured, t.ph.snap, t.st.snapshot())
	if t.ph.kind == kindRead {
		t.res.DevReadBytes += d["blockdev.read.bytes"]
	} else {
		t.res.FlashBytes += d["ftl.write.flash.bytes"]
	}
}

func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(len(sorted)-1)*p/100]
}

func (t *trial) finish() (*trialResult, error) {
	slices.Sort(t.lat)
	t.res.Samples = len(t.lat)
	if t.res.Ops == 0 { // every attempted op was inside a measured phase
		t.res.Ops = t.res.Attempted
	}
	t.res.P50Ns, t.res.P95Ns, t.res.P99Ns = percentile(t.lat, 50), percentile(t.lat, 95), percentile(t.lat, 99)
	t.res.Counts = flatten(t.measured)

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		t.res.PeakRSSKB = ru.Maxrss
	}
	if t.tr == nil {
		return &t.res, nil
	}

	// The books must balance: every simulated nanosecond since the clock
	// started is some layer's self time.
	var self int64
	t.res.Layers = map[string]layerAgg{}
	for l, name := range layerNames {
		self += t.tr.Whole[l].SimSelfNs
		t.res.Layers[name] = t.tr.Measured[l]
	}
	if now := t.st.simNow(); self != now {
		return nil, fmt.Errorf("trace: layer self times sum to %d ns, simulated clock reads %d ns", self, now)
	}
	t.res.EngineIO = t.st.engineIO()
	t.res.MappedBytes = t.st.mapped.bytes()
	if t.cfg.TraceOut != "" {
		if err := t.tr.writeChrome(t.cfg.TraceOut); err != nil {
			return nil, err
		}
	}
	return &t.res, nil
}
