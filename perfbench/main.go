// Command perfbench is the DSspy benchmark. It runs one workload for a fixed
// time, checks every report it produces, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as the last line of its output:
//
//	{"correct": true, "attempted": 80, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	apps-full      the seven Table IV apps under `dsspy -app X` defaults
//	apps-adaptive  the same apps under `dsspy -app X -sample=adaptive`, warmed
//	ipc-2p         a two-goroutine program shipping to a `dsspy -listen` server
//
// Run it through perfbench/run.sh from the repository root; see
// perfbench/README.md for the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dsspy/internal/core"
)

// procStart is as close to process start as the program can observe.
var procStart = time.Now()

// setupPasses is how often a run sets its workload up; setup_s is the
// median, so one slow pass does not move it.
const setupPasses = 3

// unit is one timed program inside a round: a Table IV app or the ipc-2p
// program.
type unit struct {
	name                   string
	twin, profiled, report time.Duration

	// Traced rounds only, the reconciliation inputs: accesses that took the
	// admitted and the dropped dstruct path, time spent delivering events
	// (flush, which includes block: time stalled on the collector), closing
	// the collector, and analyzing.
	admitted, droppedAcc         float64
	flush, block, close, analyze time.Duration
}

type round struct {
	id     int
	traced bool
	units  []unit
	alloc  uint64
	err    error
	layer  map[string]float64 // per-layer figures, traced rounds only
}

// fail records the round's first correctness failure.
func (r *round) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *round) profiled() (d time.Duration) {
	for _, u := range r.units {
		d += u.profiled
	}
	return d
}

func (r *round) report() (d time.Duration) {
	for _, u := range r.units {
		d += u.report
	}
	return d
}

type workload interface {
	setup() error
	run(r *round, t *tracer)
}

var workloadNames = []string{"apps-full", "apps-adaptive", "ipc-2p"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "apps-full":
		return newAppsWorkload(seed, false)
	case "apps-adaptive":
		return newAppsWorkload(seed, true)
	case "ipc-2p":
		if n := runtime.NumCPU(); n < ipcProducers {
			return nil, fmt.Errorf("ipc-2p runs %d producer goroutines and needs as many CPUs, have %d", ipcProducers, n)
		}
		return newIPCWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

type spec struct {
	name, unit string
	max        bool // aggregate traced rounds by max instead of median
}

var endToEnd = []spec{
	{name: "slowdown", unit: "x"},
	{name: "profiled_ms", unit: "ms"},
	{name: "report_ms_p50", unit: "ms"},
	{name: "report_ms_p90", unit: "ms"},
	{name: "alloc_mb", unit: "MiB"},
	{name: "peak_rss_mb", unit: "MiB"},
	{name: "setup_s", unit: "s"},
}

var perLayer = []spec{
	{name: "apps.twin_ms", unit: "ms"},
	{name: "dstruct.admitted_ns", unit: "ns"},
	{name: "dstruct.dropped_ns", unit: "ns"},
	{name: "dstruct.floor_x", unit: "x"},
	{name: "trace.flush_p50_ns", unit: "ns"},
	{name: "trace.flush_fill_mean", unit: "count"},
	{name: "trace.block_share", unit: "ratio"},
	{name: "trace.queue_high_water", unit: "count"},
	{name: "trace.collector_close_ms", unit: "ms"},
	{name: "trace.socket_record_ns", unit: "ns"},
	{name: "trace.wire_bytes_per_event", unit: "B"},
	{name: "trace.server_drain_ms", unit: "ms"},
	{name: "trace.dropped", unit: "count", max: true},
	{name: "trace.salvaged", unit: "count", max: true},
	{name: "sample.kept_share", unit: "ratio"},
	{name: "sample.aggregated_share", unit: "ratio"},
	{name: "sample.backed_off_share", unit: "ratio"},
	{name: "sample.repromotions", unit: "count"},
	{name: "sample.max_bound", unit: "ratio", max: true},
	{name: "core.analyze_ms", unit: "ms"},
	{name: "core.stage.build_ms", unit: "ms"},
	{name: "core.stage.summarize_ms", unit: "ms"},
	{name: "core.stage.usecases_ms", unit: "ms"},
	{name: "core.stage.regularity_ms", unit: "ms"},
	{name: "core.stage.shared_ms", unit: "ms"},
	{name: "core.stream_close_ms", unit: "ms"},
	{name: "core.fold_ns_per_event", unit: "ns"},
	{name: "bench.trace_overhead_ms", unit: "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the last line of standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result, written under .bench_build/results/.
type record struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      int                `json:"seconds"`
	Trace        bool               `json:"trace"`
	Commit       string             `json:"commit"`
	SourceDigest string             `json:"source_sha256"`
	Host         host               `json:"host"`
	Rounds       int                `json:"rounds"`
	Samples      map[string]int     `json:"samples"`
	Errors       []string           `json:"errors,omitempty"`
	Result       line               `json:"result"`
	Units        []unitSummary      `json:"units"`
	Reconcile    []string           `json:"reconcile,omitempty"`
	Extra        map[string]float64 `json:"extra,omitempty"`
}

type unitSummary struct {
	Name       string  `json:"name"`
	TwinMS     float64 `json:"twin_ms_p50"`
	ProfiledMS float64 `json:"profiled_ms_p50"`
	ReportMS   float64 `json:"report_ms_p50"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	seed         int64
	seconds      int
	traced       bool
	root, commit string
	// start is when the first set-up pass began: process start for the
	// first workload a process runs.
	start time.Time
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all (one after another)")
	seed := fs.Int64("seed", 1, "input seed: app order for the apps workloads, producer scripts for ipc-2p")
	seconds := fs.Int("seconds", 30, "how long the timed rounds run")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	root := fs.String("root", ".", "repository root; results go to <root>/.bench_build/results")
	commit := fs.String("commit", "unknown", "commit id to record with the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, root: *root, commit: *commit, start: procStart}
	if *name != "all" {
		return runWorkload(*name, o, stdout, stderr)
	}
	code := 0
	for _, n := range workloadNames {
		code = max(code, runWorkload(n, o, stdout, stderr))
		o.start = time.Time{}
	}
	return code
}

// runWorkload sets one workload up, runs its rounds for o.seconds, and
// prints its metrics; the exit code is 1 when any check failed.
func runWorkload(name string, o options, stdout, stderr io.Writer) int {
	w, err := newWorkload(name, o.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	traced := o.traced
	rec := record{
		Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: o.traced,
		Commit: o.commit, Host: hostFacts(), Samples: map[string]int{},
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%v commit=%s\n", name, o.seed, o.seconds, traced, o.commit)
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q\n",
		rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.GOOS, rec.Host.GOARCH, rec.Host.CPUModel)

	var setups []float64
	for i := 0; i < setupPasses; i++ {
		start := time.Now()
		if i == 0 && !o.start.IsZero() {
			start = o.start
		}
		if err := w.setup(); err != nil {
			fmt.Fprintln(stderr, "perfbench: setup:", err)
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var t *tracer
	if traced {
		t = newTracer()
	}
	var rounds []*round
	// A traced run alternates untraced and traced rounds, so the difference
	// between the two halves is the tracing overhead; it needs one of each.
	minRounds := 1
	if o.traced {
		minRounds = 2
	}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		r := &round{id: i, traced: traced && i%2 == 1}
		var rt *tracer
		if r.traced {
			rt = t
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w.run(r, rt)
		runtime.ReadMemStats(&m1)
		r.alloc = m1.TotalAlloc - m0.TotalAlloc
		rounds = append(rounds, r)
	}
	rss := peakRSS()

	var plain, tracedRounds []*round
	for _, r := range rounds {
		if r.traced {
			tracedRounds = append(tracedRounds, r)
		} else {
			plain = append(plain, r)
		}
	}
	attempted, failed := len(rounds), 0
	for _, r := range rounds {
		if r.err != nil {
			failed++
			rec.Errors = append(rec.Errors, fmt.Sprintf("round %d: %v", r.id, r.err))
		}
	}

	e2e, samples := endToEndMetrics(plain, setups, rss)
	metrics := e2e
	rec.Rounds = len(rounds)
	rec.Units = unitSummaries(plain)
	writeUnits(stdout, "per-unit medians, untraced rounds", rec.Units)
	writeMetrics(stdout, "end-to-end (untraced rounds)", endToEnd, e2e, samples)
	if traced {
		layer, n, extra, errs := layerMetrics(o.seed, plain, tracedRounds, stdout)
		attempted += len(workloadNames)
		failed += len(errs)
		rec.Errors = append(rec.Errors, errs...)
		rec.Extra = extra
		rec.Reconcile = reconcile(stdout, tracedRounds, extra)
		metrics = layer
		for k, v := range n {
			samples[k] = v
		}
		writeMetrics(stdout, "per-layer (traced rounds and probes)", perLayer, layer, samples)
		t.writeSelfTimes(stdout, len(tracedRounds))
	}
	rec.Samples = samples
	fmt.Fprintf(stdout, "error_rate %.4f ratio (%d failed of %d rounds)\n", float64(failed)/float64(attempted), failed, attempted)
	for i, e := range rec.Errors {
		if i == 10 {
			fmt.Fprintf(stdout, "... %d more failures\n", len(rec.Errors)-i)
			break
		}
		fmt.Fprintln(stdout, "FAIL", e)
	}

	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s has no value\n", k)
			return 1
		}
	}
	rec.Result = line{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	rec.SourceDigest = sourceDigest(o.root)
	saveRecord(stderr, o.root, &rec, t)
	out, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if failed > 0 {
		return 1
	}
	return 0
}

// endToEndMetrics computes the user-visible figures over untraced rounds.
func endToEndMetrics(rounds []*round, setups []float64, rss float64) (map[string]metric, map[string]int) {
	var prof, rep, alloc []float64
	for _, r := range rounds {
		prof = append(prof, ms(r.profiled()))
		rep = append(rep, ms(r.report()))
		alloc = append(alloc, float64(r.alloc)/mib)
	}
	var ratios []float64
	for _, u := range unitSummaries(rounds) {
		ratios = append(ratios, u.ProfiledMS/u.TwinMS)
	}
	p90 := quantile(rep, 0.9)
	vals := map[string]float64{
		"slowdown":      geomean(ratios),
		"profiled_ms":   median(prof),
		"report_ms_p50": median(rep),
		"report_ms_p90": p90,
		"alloc_mb":      median(alloc),
		"peak_rss_mb":   rss / mib,
		"setup_s":       median(setups),
	}
	m := map[string]metric{}
	for _, s := range endToEnd {
		m[s.name] = metric{vals[s.name], s.unit}
	}
	n := len(rounds)
	samples := map[string]int{
		"slowdown": n, "profiled_ms": n, "report_ms_p50": n, "report_ms_p90": n,
		"report_ms_p90.beyond": beyond(rep, p90), "alloc_mb": n, "peak_rss_mb": 1, "setup_s": len(setups),
	}
	return m, samples
}

// unitSummaries gives each unit's median twin, profiled and report times.
func unitSummaries(rounds []*round) []unitSummary {
	by := map[string]*[3][]float64{}
	var names []string
	for _, r := range rounds {
		for _, u := range r.units {
			v, ok := by[u.name]
			if !ok {
				v = new([3][]float64)
				by[u.name] = v
				names = append(names, u.name)
			}
			v[0] = append(v[0], ms(u.twin))
			v[1] = append(v[1], ms(u.profiled))
			v[2] = append(v[2], ms(u.report))
		}
	}
	sort.Strings(names)
	out := make([]unitSummary, 0, len(names))
	for _, n := range names {
		v := by[n]
		out = append(out, unitSummary{Name: n, TwinMS: median(v[0]), ProfiledMS: median(v[1]), ReportMS: median(v[2])})
	}
	return out
}

// layerMetrics assembles the per-layer metrics of a traced run. Layers the
// workload passes through come from its traced rounds; a layer it bypasses
// is taken from one traced probe round of the workload that exercises it,
// so every traced run reports every layer. The single-layer probes follow.
// It also returns each metric's sample count.
func layerMetrics(seed int64, plain, traced []*round, stdout io.Writer) (map[string]metric, map[string]int, map[string]float64, []string) {
	own := map[string][]float64{}
	for _, r := range traced {
		for k, v := range r.layer {
			own[k] = append(own[k], v)
		}
	}
	vals := map[string]float64{}
	n := map[string]int{}
	for _, s := range perLayer {
		if xs, ok := own[s.name]; ok {
			n[s.name] = len(xs)
			if s.max {
				vals[s.name] = quantile(xs, 1)
			} else {
				vals[s.name] = median(xs)
			}
		}
	}
	twin := 0.0
	for _, u := range unitSummaries(traced) {
		twin += u.TwinMS
	}
	vals["apps.twin_ms"] = twin
	vals["bench.trace_overhead_ms"] = median(reports(traced)) - median(reports(plain))
	n["apps.twin_ms"], n["bench.trace_overhead_ms"] = len(traced), len(traced)

	var errs []string
	var kept []keptRun
	for i, pn := range workloadNames {
		pw, err := newWorkload(pn, seed)
		if err == nil {
			if aw, ok := pw.(*appsWorkload); ok && !aw.adaptive {
				aw.keep = true
			}
			err = pw.setup()
		}
		r := &round{id: len(plain) + len(traced) + i, traced: true}
		if err == nil {
			pw.run(r, nil)
			err = r.err
		}
		if err != nil {
			errs = append(errs, fmt.Sprintf("probe round %s: %v", pn, err))
			continue
		}
		if aw, ok := pw.(*appsWorkload); ok && aw.keep {
			kept = aw.kept
		}
		for _, s := range perLayer {
			if _, have := vals[s.name]; !have {
				if v, ok := r.layer[s.name]; ok {
					vals[s.name], n[s.name] = v, 1
				}
			}
		}
	}

	analyzer := core.NewWith(core.DefaultConfig())
	admitted, dropped, plainNS := dstructProbe()
	vals["dstruct.admitted_ns"] = admitted
	vals["dstruct.dropped_ns"] = dropped
	vals["dstruct.floor_x"] = floorProbe(analyzer)
	vals["core.fold_ns_per_event"] = foldProbe(analyzer, kept)
	n["dstruct.admitted_ns"], n["dstruct.dropped_ns"], n["dstruct.floor_x"] = probeReps, probeReps, probeReps
	n["core.fold_ns_per_event"] = 1

	out := map[string]metric{}
	for _, s := range perLayer {
		v, ok := vals[s.name]
		if !ok {
			v = math.NaN()
		}
		out[s.name] = metric{v, s.unit}
	}
	extra := map[string]float64{"dstruct.admitted_ns": admitted, "dstruct.dropped_ns": dropped, "dstruct.plain_ns": plainNS}
	fmt.Fprintf(stdout, "dstruct probe: admitted %.2f ns, dropped %.2f ns, plain containers %.2f ns per access\n", admitted, dropped, plainNS)
	return out, n, extra, errs
}

func reports(rounds []*round) []float64 {
	var xs []float64
	for _, r := range rounds {
		xs = append(xs, ms(r.report()))
	}
	return xs
}

// reconcile prints, per unit, the measured overhead over the twin next to
// the sum of the layer costs the traced rounds attribute to it, and the
// residual the attribution leaves unexplained. It is a report, not a gate.
func reconcile(stdout io.Writer, traced []*round, extra map[string]float64) []string {
	type acc struct{ twin, prof, rep, dstruct, flush, block, close, analyze []float64 }
	by := map[string]*acc{}
	var names []string
	plainNS := extra["dstruct.plain_ns"]
	for _, r := range traced {
		for _, u := range r.units {
			a, ok := by[u.name]
			if !ok {
				a = &acc{}
				by[u.name] = a
				names = append(names, u.name)
			}
			a.twin = append(a.twin, ms(u.twin))
			a.prof = append(a.prof, ms(u.profiled))
			a.rep = append(a.rep, ms(u.report))
			d := u.admitted*(extra["dstruct.admitted_ns"]-plainNS) + u.droppedAcc*(extra["dstruct.dropped_ns"]-plainNS)
			a.dstruct = append(a.dstruct, d/1e6)
			a.flush = append(a.flush, ms(u.flush-u.block))
			a.block = append(a.block, ms(u.block))
			a.close = append(a.close, ms(u.close))
			a.analyze = append(a.analyze, ms(u.analyze))
		}
	}
	var lines []string
	fmt.Fprintln(stdout, "reconciliation, ms (medians over traced rounds):")
	for _, n := range names {
		a := by[n]
		twin := median(a.twin)
		gapP, gapR := median(a.prof)-twin, median(a.rep)-twin
		producer := median(a.dstruct) + median(a.flush) + median(a.block)
		all := producer + median(a.close) + median(a.analyze)
		l := fmt.Sprintf("%-16s profiled-twin %8.3f = dstruct %7.3f + flush %7.3f + block %7.3f + residual %8.3f (%4.0f%%) | report-twin %8.3f = ... + close %7.3f + analyze %8.3f + residual %8.3f (%4.0f%%)",
			n, gapP, median(a.dstruct), median(a.flush), median(a.block), gapP-producer, 100*(gapP-producer)/gapP,
			gapR, median(a.close), median(a.analyze), gapR-all, 100*(gapR-all)/gapR)
		fmt.Fprintln(stdout, "  "+l)
		lines = append(lines, l)
	}
	return lines
}

func writeUnits(w io.Writer, title string, units []unitSummary) {
	fmt.Fprintf(w, "%s:\n", title)
	fmt.Fprintf(w, "  %-16s %10s %12s %12s %8s\n", "unit", "twin ms", "profiled ms", "report ms", "ratio")
	for _, u := range units {
		fmt.Fprintf(w, "  %-16s %10.3f %12.3f %12.3f %8.2f\n", u.Name, u.TwinMS, u.ProfiledMS, u.ReportMS, u.ProfiledMS/u.TwinMS)
	}
}

func writeMetrics(w io.Writer, title string, specs []spec, m map[string]metric, samples map[string]int) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok {
			continue
		}
		note := fmt.Sprintf("n=%d", samples[s.name])
		if b, ok := samples[s.name+".beyond"]; ok {
			note += fmt.Sprintf(", %d beyond", b)
		}
		fmt.Fprintf(w, "  %-28s %14.4f %-6s (%s)\n", s.name, v.Value, s.unit, note)
	}
}

// saveRecord writes the full result, and the spans of a traced run, under
// <root>/.bench_build/results. Failing to write them is reported but does
// not fail the run: the printed result is authoritative.
func saveRecord(stderr io.Writer, root string, rec *record, t *tracer) {
	dir := filepath.Join(root, ".bench_build", "results")
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, map[bool]int{false: 0, true: 1}[rec.Trace]))
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		var b []byte
		b, err = json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(base+".json", b, 0o644)
		}
	}
	if err == nil && t != nil {
		err = t.save(base + ".spans.json")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: saving results:", err)
	}
}
