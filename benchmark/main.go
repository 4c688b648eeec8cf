// Command benchmark is the repository's benchmark: four workloads on
// betrfs-v0.6, ten end-to-end metrics on two clocks, and a per-layer
// trace taken from outside the layers. README.md is the catalogue.
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// is the driver's form and ends with one JSON line. Without --workload it
// runs all four and prints tables; --aa runs each twice and compares,
// --layers adds the layer drivers, --smoke shrinks everything to 1/16.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	layers   bool
	aa       bool
	smoke    bool
	out      string
}

// childRequest is what a parent process asks of a child of the same
// binary: one trial, or the layer drivers.
type childRequest struct {
	Trial    *trialConfig `json:"trial,omitempty"`
	DriverNs int64        `json:"driver_ns,omitempty"`
	Seed     uint64       `json:"seed,omitempty"`
}

func main() {
	var o options
	var trace int
	var child string
	var describe bool
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with the driver's JSON line (default: all four, tables only)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generator")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "host seconds to measure per workload; whole trials repeat until it is reached")
	flag.IntVar(&trace, "trace", 0, "1: add the traced run and report the per-layer metrics")
	flag.BoolVar(&o.layers, "layers", false, "run the layer drivers for a full second each and print them")
	flag.BoolVar(&o.aa, "aa", false, "run everything twice and compare the two against the bounds")
	flag.BoolVar(&o.smoke, "smoke", false, "1/16 sizing: exercises the benchmark, reaches no regime")
	flag.StringVar(&o.out, "out", "out", "directory for Chrome trace files")
	flag.StringVar(&child, "child", "", "internal: serve one request from a parent benchmark process")
	flag.BoolVar(&describe, "describe", false, "print BENCHMARK.json as the catalogue defines it")
	flag.Parse()
	o.trace = trace != 0

	var err error
	switch {
	case child != "":
		err = serveChild(child)
	case describe:
		var doc []byte
		if doc, err = benchmarkJSON(); err == nil {
			_, err = os.Stdout.Write(doc)
		}
	default:
		b := &bench{opt: o, w: os.Stdout, trial: childTrial, drivers: childDrivers}
		err = b.main()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// ---- child processes ----

func serveChild(arg string) error {
	var req childRequest
	if err := json.Unmarshal([]byte(arg), &req); err != nil {
		return fmt.Errorf("child request: %w", err)
	}
	var res any
	var err error
	if req.Trial != nil {
		res, err = runTrial(*req.Trial)
	} else {
		res, err = runLayerDrivers(req.Seed, time.Duration(req.DriverNs))
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// callChild runs req in a fresh process of this binary and decodes its
// answer into res. The child's diagnostics pass through to stderr.
func callChild(req childRequest, res any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	arg, err := json.Marshal(req)
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "--child", string(arg))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child process: %w", err)
	}
	return json.Unmarshal(out, res)
}

func childTrial(cfg trialConfig) (*trialResult, error) {
	var r trialResult
	if err := callChild(childRequest{Trial: &cfg}, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func childDrivers(seed uint64, d time.Duration) (map[string]driverResult, error) {
	var r map[string]driverResult
	err := callChild(childRequest{Seed: seed, DriverNs: int64(d)}, &r)
	return r, err
}

// ---- measuring ----

// bench runs workloads through trial and drivers: child processes in the
// command, in-process calls in the tests.
type bench struct {
	opt     options
	w       io.Writer
	trial   func(trialConfig) (*trialResult, error)
	drivers func(seed uint64, d time.Duration) (map[string]driverResult, error)
}

// stat summarises one metric over a run's trials.
type stat struct {
	Median, Q1, Q3 float64
	N              int
}

func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func summarize(xs []float64) stat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stat{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// measured is one workload's untraced run.
type measured struct {
	name      string
	trials    []*trialResult
	values    map[string]stat // end-to-end, by metric name
	attempted int64
	failed    int64
	notes     []string
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndOf derives a trial's end-to-end metrics, all but setup_s.
func endToEndOf(r *trialResult) map[string]float64 {
	ops := float64(r.Ops)
	return map[string]float64{
		"sim_write_s":        float64(r.SimNs[kindWrite]) / 1e9,
		"sim_read_s":         float64(r.SimNs[kindRead]) / 1e9,
		"write_amp":          div(float64(r.FlashBytes), float64(r.UserWritten)),
		"read_amp":           div(float64(r.DevReadBytes), float64(r.UserRead)),
		"host_cpu_s":         float64(r.CPUNs) / 1e9,
		"allocs_per_op":      div(float64(r.Mallocs), ops),
		"alloc_bytes_per_op": div(float64(r.AllocBytes), ops),
		"peak_rss_mb":        float64(r.PeakRSSKB) / 1024,
		"p50_us":             float64(r.P50Ns) / 1e3,
	}
}

// simulated reports whether a metric is on the simulated clock, where one
// seed must repeat exactly.
func simulated(metric string) bool {
	switch metric {
	case "sim_write_s", "sim_read_s", "write_amp", "read_amp":
		return true
	}
	return false
}

// singleGoroutine reports whether all of a workload's measured ops run on
// one goroutine against the simulated clock: all but serve_mix, whose
// measured loop is concurrent and waits in real time. Only such a run can
// carry the span tracer, and only such a run's simulated clock and
// registry repeat exactly; serve_mix takes its simulated metrics from a
// deterministic trial of their own (serve.go).
func singleGoroutine(workload string) bool { return workload != "serve_mix" }

func (b *bench) config(workload string) trialConfig {
	return trialConfig{Workload: workload, Seed: b.opt.seed, Smoke: b.opt.smoke}
}

// measure runs workload without tracing: whole trials on fresh instances
// until --seconds of measured host time, then processes that only set up,
// over and over, for the setup_s samples.
func (b *bench) measure(workload string) (*measured, error) {
	m := &measured{name: workload, values: map[string]stat{}}
	samples := map[string][]float64{}
	// take counts trial r's ops and keeps its metrics on the simulated
	// clock, on the host's, or both.
	take := func(r *trialResult, sim, host bool) {
		m.attempted += r.Attempted
		m.failed += r.Failed
		m.notes = append(m.notes, r.Notes...)
		for name, v := range endToEndOf(r) {
			if simulated(name) && sim || !simulated(name) && host {
				samples[name] = append(samples[name], v)
			}
		}
	}
	bothClocks := singleGoroutine(workload)
	var spent time.Duration
	for {
		r, err := b.trial(b.config(workload))
		if err != nil {
			return nil, err
		}
		m.trials = append(m.trials, r)
		take(r, bothClocks, true)
		spent += time.Duration(r.WallNs)
		if b.opt.smoke || spent >= time.Duration(b.opt.seconds)*time.Second {
			break
		}
	}
	if !bothClocks {
		cfg := b.config(workload)
		cfg.Deterministic = true
		r, err := b.trial(cfg)
		if err != nil {
			return nil, err
		}
		take(r, true, false)
	}
	for name, xs := range samples {
		for _, x := range xs {
			if simulated(name) && x != xs[0] {
				return nil, fmt.Errorf("%s: %s differs between trials of one seed (%v): the simulated clock is not deterministic", workload, name, xs)
			}
		}
	}
	// Set-up is sampled in up to fifteen more processes, until a second of
	// set-ups is sampled: a few-millisecond set-up reads 1.6x apart from one
	// process to the next on a busy host, and their pooled median does not.
	cfg := b.config(workload)
	cfg.SetupOnly = true
	for n, sampled := 0, 0.0; n < 15 && sampled < 1 && !(b.opt.smoke && n > 0); n++ {
		r, err := b.trial(cfg)
		if err != nil {
			return nil, err
		}
		samples["setup_s"] = append(samples["setup_s"], r.SetupSamples...)
		for _, s := range r.SetupSamples {
			sampled += s
		}
	}
	for name, xs := range samples {
		m.values[name] = summarize(xs)
	}
	return m, nil
}

// traced is one workload's traced run: the per-layer metrics.
type traced struct {
	values            map[string]float64
	attempted, failed int64
	notes             []string
	file              string
	// overheadPct is the traced trial's host CPU over the untraced one's,
	// minus one: what the decorators cost.
	overheadPct float64
}

// trace runs workload once with the decorators in place, checks it
// against the untraced trial u, and derives the per-layer metrics.
func (b *bench) trace(workload string, u *trialResult, drv map[string]driverResult) (*traced, error) {
	cfg := b.config(workload)
	cfg.Traced = true
	if singleGoroutine(workload) {
		cfg.TraceOut = filepath.Join(b.opt.out, fmt.Sprintf("trace_%s_seed%d.json", workload, b.opt.seed))
	}
	t, err := b.trial(cfg)
	if err != nil {
		return nil, err
	}
	// The decorators must not move the clock or change a code path.
	if err := sameSimulation(u, t); err != nil {
		return nil, fmt.Errorf("%s: traced run differs from untraced: %w", workload, err)
	}
	return &traced{
		values:    perLayerValues(t, drv),
		attempted: t.Attempted, failed: t.Failed, notes: t.Notes,
		file:        cfg.TraceOut,
		overheadPct: 100 * div(float64(t.CPUNs-u.CPUNs), float64(u.CPUNs)),
	}, nil
}

// sameSimulation reports the first simulated quantity or registry count on
// which two trials of one seed differ.
func sameSimulation(a, b *trialResult) error {
	if !singleGoroutine(a.Config.Workload) {
		return nil // clock and registry follow the measured loop's interleaving
	}
	for _, kind := range []string{kindWrite, kindRead, kindRename, kindDelete} {
		if a.SimNs[kind] != b.SimNs[kind] {
			return fmt.Errorf("simulated time of the %s phases: %d vs %d ns", kind, a.SimNs[kind], b.SimNs[kind])
		}
	}
	if a.SimMaxOpNs != b.SimMaxOpNs {
		return fmt.Errorf("longest op: %d vs %d ns", a.SimMaxOpNs, b.SimMaxOpNs)
	}
	names := make([]string, 0, len(a.Counts))
	for name := range a.Counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if a.Counts[name] != b.Counts[name] {
			return fmt.Errorf("registry %s: %d vs %d", name, a.Counts[name], b.Counts[name])
		}
	}
	if len(a.Counts) != len(b.Counts) {
		return fmt.Errorf("registry: %d names vs %d", len(a.Counts), len(b.Counts))
	}
	return nil
}

// perLayerValues derives the per-layer metrics from a traced trial t and
// the layer drivers. A metric that does not apply to
// the workload is absent, and reads 0.
func perLayerValues(t *trialResult, drv map[string]driverResult) map[string]float64 {
	v := map[string]float64{}
	for _, name := range layerNames {
		a := t.Layers[name]
		v[name+".calls"] = float64(a.Calls)
		v[name+".sim_self_s"] = float64(a.SimSelfNs) / 1e9
		v[name+".host_self_s"] = float64(a.HostSelfNs) / 1e9
	}
	for _, spec := range engineIOMetrics {
		v[spec.Name] = float64(t.EngineIO[spec.Name[len("engine."):]])
	}
	v["sim.max_op_ms"] = float64(t.SimMaxOpNs) / 1e6
	v["ns.rename.sim_s"] = float64(t.SimNs[kindRename]) / 1e9
	v["ns.delete.sim_s"] = float64(t.SimNs[kindDelete]) / 1e9
	v["blockdev.busy_s"] = float64(t.DevBusyNs) / 1e9
	v["blockdev.mapped_bytes"] = float64(t.MappedBytes)
	for _, m := range registryMetrics {
		num := float64(t.Counts[m.num])
		if m.den != nil {
			var den float64
			for _, d := range m.den {
				den += float64(t.Counts[d])
			}
			num = div(num, den)
		}
		v[m.Name] = num
	}
	for name, r := range drv {
		v[name+".host_ns_per_op"] = r.NsPerOp
		v[name+".allocs_per_op"] = r.AllocsPerOp
	}
	ops := float64(t.Ops)
	v["wire.client.writes"] = float64(t.Wire["client_writes"])
	v["wire.bytes_per_op"] = div(float64(t.Wire["client_bytes"]), ops)
	v["serve.engine.host_s"] = float64(t.Wire["engine_host_ns"]) / 1e9
	v["serve.wire.host_s"] = float64(t.Wire["client_wait_ns"]-t.Wire["engine_host_ns"]) / 1e9
	if !singleGoroutine(t.Config.Workload) {
		v["serve.wall_ops_per_s"] = wallOpsPerS(t)
	}
	// Every reply flush is one vectored write and one sample here.
	v["wire.server.writes"] = float64(t.Counts["fsserve.batch.replies.count"])
	for _, c := range classNames {
		v["serve."+c+".p50_us"] = t.ClassP50[c]
		v["serve."+c+".p99_us"] = t.ClassP99[c]
	}
	return v
}

// ---- reporting ----

func (b *bench) printEnv() {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	fmt.Fprintf(b.w, "env: %s GOMAXPROCS=%d GOGC=%s seed=%d seconds=%d scale=1/%d smoke=%v commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), gogc, b.opt.seed, b.opt.seconds, deviceScale, b.opt.smoke, commit)
}

func (b *bench) printMeasured(m *measured) {
	fmt.Fprintf(b.w, "\n%s: %d trials, %d ops attempted, %d failed", m.name, len(m.trials), m.attempted, m.failed)
	if tr := m.trials[0].Transport; tr != "" {
		fmt.Fprintf(b.w, ", transport %s; simulated metrics from the deterministic trial", tr)
	}
	fmt.Fprintln(b.w)
	for _, note := range m.notes {
		fmt.Fprintln(b.w, "  FAILED:", note)
	}
	for _, spec := range endToEnd {
		s := m.values[spec.Name]
		fmt.Fprintf(b.w, "  %-20s %16.6f %-5s", spec.Name, s.Median, spec.Unit)
		switch {
		case spec.Name == "p50_us":
			fmt.Fprintf(b.w, "  %d samples per trial", m.trials[0].Samples)
		case s.N > 1 && !simulated(spec.Name):
			fmt.Fprintf(b.w, "  q1 %.6f  q3 %.6f  n %d", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(b.w)
	}
	// The tail percentiles and serve_mix's wall-clock throughput are printed
	// and not gated: identical runs on a shared host spread them wider than
	// any bound (README.md "Bounds").
	ungated := func(name, unit string, of func(*trialResult) float64) {
		xs := make([]float64, len(m.trials))
		for i, r := range m.trials {
			xs[i] = of(r)
		}
		fmt.Fprintf(b.w, "  %-20s %16.6f %-5s  not gated\n", name, summarize(xs).Median, unit)
	}
	ungated("p95_us", "us", func(r *trialResult) float64 { return float64(r.P95Ns) / 1e3 })
	ungated("p99_us", "us", func(r *trialResult) float64 { return float64(r.P99Ns) / 1e3 })
	if !singleGoroutine(m.name) {
		ungated("wall_ops_per_s", "op/s", wallOpsPerS)
	}
}

// wallOpsPerS is a trial's host-clock throughput: what serve_mix's clients,
// who wait in real time, get.
func wallOpsPerS(r *trialResult) float64 {
	return div(float64(r.Ops), float64(r.WallNs)/1e9)
}

func (b *bench) printTraced(name string, t *traced) {
	fmt.Fprintf(b.w, "\n%s, traced: %d ops attempted, %d failed, trace_overhead_pct %.1f", name, t.attempted, t.failed, t.overheadPct)
	if t.file != "" {
		fmt.Fprintf(b.w, "; slowest %d span trees in %s", slowestKept, t.file)
	}
	fmt.Fprintln(b.w)
	for _, note := range t.notes {
		fmt.Fprintln(b.w, "  FAILED:", note)
	}
	for _, spec := range perLayer() {
		fmt.Fprintf(b.w, "  %-34s %18.6f %s\n", spec.Name, t.values[spec.Name], spec.Unit)
	}
}

func printDrivers(w io.Writer, drv map[string]driverResult) {
	fmt.Fprintln(w, "\nlayer drivers:")
	for _, d := range layerDrivers() {
		r := drv[d.name]
		fmt.Fprintf(w, "  %-22s %12.1f host_ns_per_op %10.2f allocs_per_op  (%d ops)\n", d.name, r.NsPerOp, r.AllocsPerOp, r.Ops)
	}
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var errFailedOps = errors.New("ops failed or returned wrong bytes")

// ---- modes ----

func (b *bench) main() error {
	o := b.opt
	known := o.workload == ""
	for _, w := range workloads {
		known = known || w.Name == o.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	b.printEnv()
	switch {
	case o.aa:
		return b.aa()
	case o.workload != "":
		return b.driverRun()
	}
	_, err := b.suite()
	return err
}

// driverTime is how long each layer driver runs: its full time under
// --layers, a quarter of it inside a traced run, where fourteen full
// seconds would not fit the driver's schedule.
func (b *bench) driverTime(full bool) time.Duration {
	d := sizingFor(b.opt.smoke).driverTime
	if full {
		return d
	}
	return d / 4
}

// driverRun is the driver's form: one workload, one JSON line.
func (b *bench) driverRun() error {
	o := b.opt
	line := resultLine{Metrics: map[string]metricValue{}}
	if !o.trace {
		m, err := b.measure(o.workload)
		if err != nil {
			return err
		}
		b.printMeasured(m)
		line.Attempted, line.Failed = m.attempted, m.failed
		for _, spec := range endToEnd {
			line.Metrics[spec.Name] = metricValue{m.values[spec.Name].Median, spec.Unit}
		}
	} else {
		u, err := b.trial(b.config(o.workload))
		if err != nil {
			return err
		}
		drv, err := b.drivers(o.seed, b.driverTime(o.layers))
		if err != nil {
			return err
		}
		t, err := b.trace(o.workload, u, drv)
		if err != nil {
			return err
		}
		b.printTraced(o.workload, t)
		line.Attempted, line.Failed = u.Attempted+t.attempted, u.Failed+t.failed
		for _, spec := range perLayer() {
			line.Metrics[spec.Name] = metricValue{t.values[spec.Name], spec.Unit}
		}
	}
	line.Correct = line.Failed == 0
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.w, "%s\n", out)
	if !line.Correct {
		return errFailedOps
	}
	return nil
}

// suite runs all four workloads and prints their tables.
func (b *bench) suite() (map[string]*measured, error) {
	o := b.opt
	var drv map[string]driverResult
	if o.layers || o.trace {
		var err error
		if drv, err = b.drivers(o.seed, b.driverTime(o.layers)); err != nil {
			return nil, err
		}
	}
	all := map[string]*measured{}
	var failed int64
	for _, w := range workloads {
		m, err := b.measure(w.Name)
		if err != nil {
			return nil, err
		}
		all[w.Name] = m
		b.printMeasured(m)
		failed += m.failed
		if o.trace {
			t, err := b.trace(w.Name, m.trials[0], drv)
			if err != nil {
				return nil, err
			}
			b.printTraced(w.Name, t)
			failed += t.failed
		}
	}
	if o.layers {
		printDrivers(b.w, drv)
	}
	if failed > 0 {
		return all, errFailedOps
	}
	return all, nil
}

// relDiff is how far y is from x as a share of x: 0 when they are equal,
// +Inf (beyond any bound) when x is 0 and y is not.
func relDiff(x, y float64) float64 {
	if x == y {
		return 0
	}
	return math.Abs(y-x) / math.Abs(x)
}

// aa measures every workload twice on the same code, the two runs of a
// workload back to back so that both see the same minutes of the host, and
// holds each pair to the benchmark's own bounds; the simulated metrics must
// not differ at all.
func (b *bench) aa() error {
	var rows []string
	fails := 0
	for _, w := range workloads {
		var pair [2]*measured
		for i := range pair {
			m, err := b.measure(w.Name)
			if err != nil {
				return err
			}
			b.printMeasured(m)
			if m.failed > 0 {
				return errFailedOps
			}
			pair[i] = m
		}
		for _, spec := range endToEnd {
			x, y := pair[0].values[spec.Name].Median, pair[1].values[spec.Name].Median
			diff := relDiff(x, y)
			bound := spec.Bound
			if simulated(spec.Name) {
				bound = 0
			}
			verdict := "PASS"
			if diff > bound {
				verdict = "FAIL"
				fails++
			}
			rows = append(rows, fmt.Sprintf("%-10s %-20s %16.6f %16.6f %8.3f%% %6.1f%%  %s", w.Name, spec.Name, x, y, 100*diff, 100*bound, verdict))
		}
	}
	fmt.Fprintf(b.w, "\nA/A: two runs of the same code\n%-10s %-20s %16s %16s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, row := range rows {
		fmt.Fprintln(b.w, row)
	}
	if fails > 0 {
		return fmt.Errorf("A/A: %d metrics beyond their bound", fails)
	}
	return nil
}
