package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"dsspy/internal/apps"
	"dsspy/internal/core"
	"dsspy/internal/obs"
	"dsspy/internal/sample"
	"dsspy/internal/trace"
)

// adaptiveWarmups is how often an apps-adaptive round runs each app untimed
// in the same session before the timed run, so shape inheritance has seen
// the app's registration shapes stabilize (the always-on steady state).
const adaptiveWarmups = 2

// appsWorkload runs the seven Table IV apps, each once as its plain twin and
// once instrumented, the way `dsspy -app X` wires them: at full fidelity
// (sharded collector, timed recorder, BindDefault, batch AnalyzeCollector)
// or under `-sample=adaptive` (the streaming analyzer the gate requires).
type appsWorkload struct {
	adaptive  bool
	order     []*apps.App
	analyzer  *core.DSspy
	sampleCfg sample.Config

	// want holds, per app, every instance's full-fidelity verdict from the
	// same three-run session an adaptive round builds (adaptive only).
	want map[string]map[trace.InstanceID]string

	// keep retains the last round's full-fidelity sessions and closed
	// collectors for the fold probe.
	keep bool
	kept []keptRun
}

type keptRun struct {
	s   *trace.Session
	col *trace.ShardedCollector
}

// newAppsWorkload rotates the Table IV order by the seed, so different seeds
// run the apps in different positions of a round.
func newAppsWorkload(seed int64, adaptive bool) (*appsWorkload, error) {
	list := apps.Apps()
	k := int(uint64(seed) % uint64(len(list)))
	cfg, err := sample.ParseConfig("adaptive")
	if err != nil {
		return nil, err
	}
	return &appsWorkload{
		adaptive:  adaptive,
		order:     append(list[k:len(list):len(list)], list[:k]...),
		analyzer:  core.NewWith(core.DefaultConfig()),
		sampleCfg: cfg,
	}, nil
}

// setup warms every code path a round takes; for apps-adaptive it also
// computes the full-fidelity verdicts the oracle compares against.
func (w *appsWorkload) setup() error {
	if w.adaptive {
		w.want = map[string]map[trace.InstanceID]string{}
		for _, app := range w.order {
			sa := w.analyzer.NewStreamAnalyzer(0)
			col := sa.Collector(trace.DefaultAsyncBuffer, trace.Block(), false)
			s := trace.NewSessionWith(trace.Options{Recorder: col, CaptureSites: true})
			sa.Attach(s)
			for i := 0; i <= adaptiveWarmups; i++ {
				p := s.BindDefault()
				app.Instrumented(s)
				p.Close()
			}
			col.Close()
			want := map[trace.InstanceID]string{}
			for _, ir := range sa.Close().Instances {
				want[ir.Profile.Instance.ID] = verdict(ir)
			}
			w.want[app.Name] = want
		}
	}
	r := &round{id: -1}
	w.run(r, nil)
	return r.err
}

// appSums accumulates one round's per-layer figures across the apps.
type appSums struct {
	flush                obs.HistSnapshot
	flushes, batched     uint64
	block, close         time.Duration
	highWater            int
	dropped              uint64
	analyze, streamClose time.Duration
	stages               map[string]time.Duration
	observed, kept, agg  uint64
	backedOff, instances int
	repromotions         uint64
	maxBound             float64
}

func (w *appsWorkload) run(r *round, t *tracer) {
	w.kept = w.kept[:0]
	sums := appSums{stages: map[string]time.Duration{}}
	rs := t.open(r.id, -1, "round")
	for _, app := range w.order {
		as := t.open(r.id, rs, "app")
		u := unit{name: app.Name}
		// Alternate which side runs first so neither always inherits the
		// other's cache and heap state.
		twinFirst := r.id%2 == 0
		if twinFirst {
			u.twin = timeTwin(r, t, as, app.PlainTwin)
		}
		if w.adaptive {
			w.adaptiveRun(r, t, as, app, &u, &sums)
		} else {
			w.fullRun(r, t, as, app, &u, &sums)
		}
		if !twinFirst {
			u.twin = timeTwin(r, t, as, app.PlainTwin)
		}
		t.close(as)
		r.units = append(r.units, u)
	}
	t.close(rs)
	if r.traced {
		r.layer = sums.layer(r, w.adaptive)
	}
}

// timeTwin times one uninstrumented run after a collection, so garbage left
// by the previous span is not charged to this one.
func timeTwin(r *round, t *tracer, parent int, twin func()) time.Duration {
	runtime.GC()
	t0 := time.Now()
	twin()
	t1 := time.Now()
	t.add(r.id, parent, "twin", t0, t1)
	return t1.Sub(t0)
}

// fullRun is `dsspy -app X` with its defaults: GOMAXPROCS-sharded collector
// behind a TimedRecorder, call-site capture, BindDefault, batch analysis.
func (w *appsWorkload) fullRun(r *round, t *tracer, parent int, app *apps.App, u *unit, sums *appSums) {
	col := trace.NewShardedCollectorOpts(0, trace.DefaultAsyncBuffer, trace.Block())
	timed := trace.NewTimedRecorder(col, 0)
	s := trace.NewSessionWith(trace.Options{Recorder: timed, CaptureSites: true})
	runtime.GC()
	t0 := time.Now()
	p := s.BindDefault()
	app.Instrumented(s)
	t1 := time.Now()
	p.Close()
	t2 := time.Now()
	col.Close()
	t3 := time.Now()
	rep := w.analyzer.AnalyzeCollector(s, col)
	t4 := time.Now()
	u.profiled, u.report = t2.Sub(t0), t4.Sub(t0)
	t.add(r.id, parent, "workload", t0, t1)
	t.add(r.id, parent, "producer_close", t1, t2)
	t.add(r.id, parent, "collector_close", t2, t3)
	t.add(r.id, parent, "analyze", t3, t4)

	if got := len(rep.ParallelUseCases()); got != app.WantUseCases {
		r.fail("%s: %d parallel use cases, Table IV has %d", app.Name, got, app.WantUseCases)
	}
	if got := rep.SearchSpace().Total; got != app.WantDataStructures {
		r.fail("%s: %d list/array instances, Table IV has %d", app.Name, got, app.WantDataStructures)
	}
	cs := col.Stats()
	if cs.Dropped != 0 {
		r.fail("%s: collector dropped %d events", app.Name, cs.Dropped)
	}
	if w.keep {
		w.kept = append(w.kept, keptRun{s, col})
	}
	if !r.traced {
		return
	}
	bs := s.BatchStats()
	u.admitted = float64(timed.Count())
	u.flush, u.block = time.Duration(bs.Latency.Sum), cs.BlockTime
	u.close, u.analyze = t3.Sub(t2), t4.Sub(t3)
	sums.addCollector(bs.Latency, bs.Flushes, bs.Events, cs, u.close)
	sums.analyze += u.analyze
	for _, st := range rep.Stats.Stages {
		sums.stages[st.Name] += st.P50 * time.Duration(st.Count)
	}
}

// adaptiveRun is `dsspy -app X -sample=adaptive` in its warmed steady
// state: the app first runs untimed in the same session, then the timed run
// goes through the gate, the streaming collector and StreamAnalyzer.Close.
func (w *appsWorkload) adaptiveRun(r *round, t *tracer, parent int, app *apps.App, u *unit, sums *appSums) {
	ctrl := sample.NewController(w.sampleCfg)
	sa := w.analyzer.NewStreamAnalyzer(0)
	col := sa.Collector(trace.DefaultAsyncBuffer, trace.Block(), false)
	timed := trace.NewTimedRecorder(col, 0)
	sa.SetSampling(ctrl)
	s := trace.NewSessionWith(trace.Options{Recorder: timed, CaptureSites: true, Gate: ctrl})
	sa.Attach(s)

	ws := time.Now()
	for i := 0; i < adaptiveWarmups; i++ {
		p := s.BindDefault()
		app.Instrumented(s)
		p.Close()
	}
	quiesce(ctrl)
	t.add(r.id, parent, "warmup", ws, time.Now())
	tot0, bs0, cs0 := ctrl.Totals(), s.BatchStats(), col.Stats()

	runtime.GC()
	t0 := time.Now()
	p := s.BindDefault()
	app.Instrumented(s)
	t1 := time.Now()
	p.Close()
	t2 := time.Now()
	col.Close()
	t3 := time.Now()
	rep := sa.Close()
	t4 := time.Now()
	u.profiled, u.report = t2.Sub(t0), t4.Sub(t0)
	t.add(r.id, parent, "workload", t0, t1)
	t.add(r.id, parent, "producer_close", t1, t2)
	t.add(r.id, parent, "collector_close", t2, t3)
	t.add(r.id, parent, "stream_close", t3, t4)

	w.checkAdaptive(r, app, rep, ctrl)
	cs := col.Stats()
	if cs.Dropped != 0 {
		r.fail("%s: collector dropped %d events", app.Name, cs.Dropped)
	}
	if !r.traced {
		return
	}
	tot, bs := ctrl.Totals(), s.BatchStats()
	observed := tot.Observed - tot0.Observed
	kept := tot.Kept - tot0.Kept
	u.admitted = float64(kept)
	u.droppedAcc = float64(observed - kept)
	u.flush = time.Duration(bs.Latency.Sum - bs0.Latency.Sum)
	u.block = cs.BlockTime - cs0.BlockTime
	u.close, u.analyze = t3.Sub(t2), t4.Sub(t3)
	cs.BlockTime = u.block // the warmups blocked too; count the timed run only
	sums.addCollector(histDiff(bs.Latency, bs0.Latency), bs.Flushes-bs0.Flushes, bs.Events-bs0.Events, cs, u.close)
	sums.streamClose += u.analyze
	sums.observed += observed
	sums.kept += kept
	sums.agg += tot.Aggregated - tot0.Aggregated
	sums.backedOff += tot.BackedOff
	sums.instances += tot.Instances
	sums.repromotions += tot.RePromotions - tot0.RePromotions
	sums.maxBound = max(sums.maxBound, tot.MaxBound)
}

// quiesce waits until the controller's window count stops moving: backoff
// decisions close on the collector's drain goroutines, and the warmup's
// stability evidence must be recorded before the timed run starts.
func quiesce(ctrl *sample.Controller) {
	deadline := time.Now().Add(2 * time.Second)
	prev := ctrl.Totals().Windows
	for time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		w := ctrl.Totals().Windows
		if w == prev {
			return
		}
		prev = w
	}
}

// checkAdaptive is the apps-adaptive oracle: every instance either matches
// its full-fidelity verdict or declares a positive error bound, and the
// gate's conservation identity holds for every instance.
func (w *appsWorkload) checkAdaptive(r *round, app *apps.App, rep *core.Report, ctrl *sample.Controller) {
	want := w.want[app.Name]
	if len(rep.Instances) != len(want) {
		r.fail("%s: %d instances under adaptive sampling, %d at full fidelity", app.Name, len(rep.Instances), len(want))
	}
	for _, ir := range rep.Instances {
		id := ir.Profile.Instance.ID
		if got := verdict(ir); got != want[id] && (ir.Sampling == nil || ir.Sampling.Bound <= 0) {
			r.fail("%s: instance %d verdict %s differs from full fidelity %s without a bound", app.Name, id, got, want[id])
		}
	}
	for _, is := range ctrl.Instances() {
		if !is.Conserved() {
			r.fail("%s: conservation violated for instance %d", app.Name, is.ID)
		}
	}
}

// verdict renders an instance's detected use-case kinds and regularity as
// one comparable string.
func verdict(ir *core.InstanceResult) string {
	kinds := make([]string, 0, len(ir.UseCases)+1)
	for _, u := range ir.UseCases {
		kinds = append(kinds, u.Kind.String())
	}
	sort.Strings(kinds)
	if ir.Regular {
		kinds = append(kinds, "regular")
	}
	return fmt.Sprint(kinds)
}

func (sums *appSums) addCollector(flush obs.HistSnapshot, flushes, batched uint64, cs trace.CollectorStats, closeTime time.Duration) {
	sums.flush.Merge(flush)
	sums.flushes += flushes
	sums.batched += batched
	sums.block += cs.BlockTime
	sums.close += closeTime
	sums.dropped += cs.Dropped
	for _, hw := range cs.ShardHighWater {
		sums.highWater = max(sums.highWater, hw)
	}
}

// layer turns a traced round's sums into its per-layer figures. Layers the
// mode bypasses are left out; the probe rounds supply them.
func (sums *appSums) layer(r *round, adaptive bool) map[string]float64 {
	m := map[string]float64{
		"trace.flush_p50_ns":       sums.flush.Quantile(0.5),
		"trace.flush_fill_mean":    float64(sums.batched) / float64(max(sums.flushes, 1)),
		"trace.block_share":        float64(sums.block) / float64(r.profiled()),
		"trace.queue_high_water":   float64(sums.highWater),
		"trace.collector_close_ms": ms(sums.close),
		"trace.dropped":            float64(sums.dropped),
	}
	if !adaptive {
		m["core.analyze_ms"] = ms(sums.analyze)
		for _, st := range stageMetrics {
			m[st.metric] = ms(sums.stages[st.stage])
		}
		return m
	}
	m["core.stream_close_ms"] = ms(sums.streamClose)
	m["sample.kept_share"] = float64(sums.kept) / float64(max(sums.observed, 1))
	m["sample.aggregated_share"] = float64(sums.agg) / float64(max(sums.observed, 1))
	m["sample.backed_off_share"] = float64(sums.backedOff) / float64(max(sums.instances, 1))
	m["sample.repromotions"] = float64(sums.repromotions)
	m["sample.max_bound"] = sums.maxBound
	return m
}

// stageMetrics maps the batch engine's pipeline stages to metric names.
var stageMetrics = []struct{ stage, metric string }{
	{"build-profiles", "core.stage.build_ms"},
	{"summarize", "core.stage.summarize_ms"},
	{"use-cases", "core.stage.usecases_ms"},
	{"regularity", "core.stage.regularity_ms"},
	{"shared-access", "core.stage.shared_ms"},
}

// histDiff returns the observations in after that are not in before, for
// two snapshots of one cumulative histogram.
func histDiff(after, before obs.HistSnapshot) obs.HistSnapshot {
	d := obs.HistSnapshot{
		Counts: append([]uint64(nil), after.Counts...),
		Count:  after.Count - before.Count,
		Sum:    after.Sum - before.Sum,
		Max:    after.Max,
	}
	for i, c := range before.Counts {
		d.Counts[i] -= c
	}
	return d
}
