// Package core is the DSspy orchestrator: it wires the Figure 4 pipeline —
// instrumentation (dstruct), execution and collection (trace), profile
// construction (profile), pattern detection (pattern) and use-case
// generation (usecase) — and produces the report an engineer reads:
// locations, reasons, recommended actions.
package core

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"dsspy/internal/metrics"
	"dsspy/internal/obs"
	"dsspy/internal/par"
	"dsspy/internal/pattern"
	"dsspy/internal/profile"
	"dsspy/internal/sample"
	"dsspy/internal/trace"
	"dsspy/internal/usecase"
)

// Config bundles the tunables of the whole pipeline.
type Config struct {
	Thresholds usecase.Thresholds
	Pattern    pattern.Config
	Regularity pattern.RegularityConfig
	// Workers bounds the fan-out of the analysis: profile grouping and the
	// per-instance fold in Analyze, the per-shard fold in AnalyzeCollector,
	// and finalization. 0 means GOMAXPROCS; 1 is sequential.
	// The report is byte-identical for every value: results are written by
	// instance order, never by completion order.
	Workers int
	// Tracer, when set, records self-profiling spans for the analysis
	// stages (build-profiles, order, fold, finalize, snapshot).
	// Nil disables tracing; it never influences the findings.
	Tracer *obs.Tracer
}

// DefaultConfig returns the paper's thresholds and strict pattern matching.
func DefaultConfig() Config {
	return Config{
		Thresholds: usecase.Default(),
		Pattern:    pattern.DefaultConfig(),
		Regularity: pattern.DefaultRegularityConfig(),
	}
}

// DSspy is the analyzer.
type DSspy struct {
	cfg Config
}

// New returns a DSspy with the default configuration.
func New() *DSspy { return &DSspy{cfg: DefaultConfig()} }

// NewWith returns a DSspy with an explicit configuration.
func NewWith(cfg Config) *DSspy {
	if cfg.Pattern.MinLen == 0 {
		cfg.Pattern = pattern.DefaultConfig()
	}
	return &DSspy{cfg: cfg}
}

// InstanceResult is the analysis outcome for one data-structure instance.
type InstanceResult struct {
	// Origin names the report shard the result came from — a process, run,
	// or daemon window. Empty for single-run reports; MergeReports keys
	// instance identity on (Origin, Profile.Instance.ID).
	Origin   string
	Profile  *profile.Profile
	Summary  *pattern.Summary
	UseCases []usecase.UseCase
	Regular  bool
	// Shared summarizes concurrent use of the instance: patterns are
	// detected per thread (two goroutines interleaving scans are two
	// patterns, not a zigzag), and Contended flags concurrent use with at
	// least one writer.
	Shared profile.SharedAccess
	// Contention is the cross-thread summary — episodes, reader/writer
	// phases, and the bounded happens-before sketch — for instances touched
	// by more than one thread; nil for single-threaded instances, which
	// never pay for cross-thread state.
	Contention *profile.Contention
	// Sampling records adaptive-sampling provenance for rows whose event
	// stream was lossy: realized rate, conservation counters, sketch
	// estimates, and the detection error bound (mirrored onto UseCases
	// and Summary). Nil for full-fidelity rows — including rows inside a
	// sampled run that never backed off — so their bytes are unchanged.
	Sampling *sample.InstanceSampling
}

// Patterns returns the detected access patterns.
func (r *InstanceResult) Patterns() []pattern.Pattern { return r.Summary.Patterns }

// Report is the outcome of one analysis run.
type Report struct {
	// Origin names the producing process/run/window in merged fleet views;
	// empty for a plain single-run report.
	Origin    string
	Instances []*InstanceResult
	// Registered is the full instance registry, including instances that
	// never raised an event; the search-space figures are computed against
	// the lists and arrays in it, exactly as the evaluation counted
	// "number of instantiations of both data structures".
	Registered []trace.Instance
	// RegisteredFrom, set only in merged fleet reports, names the origin of
	// each Registered entry (a slice parallel to Registered). It keeps
	// re-merging associative: without it, two same-ID instances from
	// different processes would collapse into one registry row.
	RegisteredFrom []string
	// Stats instruments the analysis pipeline itself: per-stage wall
	// times, worker count, and (when the events came from an in-process
	// collector) the collection-side queue statistics. It never influences
	// the findings.
	Stats *metrics.PipelineStats
}

// Stage clocks of the batch entry points, in execution order. Both fold the
// events through the streaming reducers and finalize them; they differ in
// the first stage. Analyze groups the flat stream into retained profiles
// ("build-profiles"); AnalyzeCollector puts each shard store in per-instance
// sequence order ("order"), sorting a store only when it has to.
const (
	stagePrepare = iota
	stageFold
	stageFinalize
)

// workers resolves Config.Workers: 0 means GOMAXPROCS.
func (d *DSspy) workers() int {
	if d.cfg.Workers > 0 {
		return d.cfg.Workers
	}
	return par.DefaultParallelism()
}

// Analyze builds profiles from the events and folds each one through the
// streaming reducers StreamAnalyzer uses, fanning instances across
// Config.Workers goroutines. The profiles keep their events (charts and the
// figure demos draw them). Report ordering is deterministic (by instance
// id) regardless of the worker count.
func (d *DSspy) Analyze(s *trace.Session, events []trace.Event) *Report {
	t0 := time.Now()
	clocks := metrics.NewPipeline("build-profiles", "fold", "finalize")

	t := time.Now()
	sp := d.cfg.Tracer.Begin("build-profiles", "analyze")
	profiles := profile.BuildParallel(s, events, d.workers())
	sp.End()
	clocks.Stage(stagePrepare).Observe(time.Since(t))

	sp = d.cfg.Tracer.Begin("fold", "analyze")
	results := make([]*InstanceResult, len(profiles))
	par.For(len(profiles), d.workers(), func(i int) {
		p := profiles[i]
		t := time.Now()
		st := newInstanceStream(d, p.Instance.ID)
		st.feedEvents(d, p.Events)
		clocks.Stage(stageFold).Observe(time.Since(t))
		t = time.Now()
		results[i] = st.finalize(d, s, p)
		clocks.Stage(stageFinalize).Observe(time.Since(t))
	})
	sp.End("instances", fmt.Sprint(len(profiles)))
	return &Report{
		Instances:  results,
		Registered: s.Instances(),
		Stats: &metrics.PipelineStats{
			Events:     len(events),
			Instances:  len(results),
			Workers:    d.workers(),
			Wall:       time.Since(t0),
			Stages:     clocks.Snapshot(),
			Contention: contentionStats(results),
		},
	}
}

// AnalyzeCollector analyzes the events held by a closed collector. A
// ShardedCollector's columnar shard stores are fed in place, one worker per
// shard, into a StreamAnalyzer with one shard per store, and finalized by
// it: no event is inflated or regrouped and every event is folded once. The
// resulting profiles are event-free (Report.AttachEvents restores them for
// charts). Any other collector falls back to Analyze on the merged stream.
// Either way the collector's queue statistics are attached to Report.Stats.
func (d *DSspy) AnalyzeCollector(s *trace.Session, col trace.Collector) *Report {
	sc, ok := col.(*trace.ShardedCollector)
	if !ok {
		rep := d.Analyze(s, col.Events())
		cs := col.Stats()
		rep.Stats.Collector = &cs
		return rep
	}

	clocks := metrics.NewPipeline("order", "fold", "finalize")
	stores := sc.ShardColumns()
	a := d.NewStreamAnalyzer(len(stores))
	a.session = s
	par.For(len(stores), d.workers(), func(i int) {
		b := stores[i]
		if b.Len() == 0 {
			return
		}
		shard := strconv.Itoa(i)
		t := time.Now()
		sp := d.cfg.Tracer.Begin("order", "analyze")
		// Every instance lives in one shard, and the fold must see it in
		// sequence order, as Analyze's sorted profiles do. A whole-store
		// check would be too coarse: a shard fed by several producers
		// interleaves instances while each one is still in order.
		if !instancesInSeqOrder(b) {
			b.SortBySeq()
		}
		sp.End("shard", shard)
		clocks.Stage(stagePrepare).Observe(time.Since(t))

		t = time.Now()
		sp = d.cfg.Tracer.Begin("fold", "analyze")
		a.feedShardCols(i, b, 0, b.Len())
		sp.End("shard", shard, "events", strconv.Itoa(b.Len()))
		clocks.Stage(stageFold).Observe(time.Since(t))
	})

	t := time.Now()
	sp := d.cfg.Tracer.Begin("finalize", "analyze")
	rep := a.buildReport(a.live())
	sp.End("instances", fmt.Sprint(len(rep.Instances)))
	clocks.Stage(stageFinalize).Observe(time.Since(t))
	// A batch report: the stream counters describe no live run.
	rep.Stats.Streaming = nil
	rep.Stats.Workers = d.workers()
	rep.Stats.Stages = clocks.Snapshot()
	cs := sc.Stats()
	rep.Stats.Collector = &cs
	return rep
}

// instancesInSeqOrder reports whether every instance's events in b appear
// in ascending sequence order, in one walk over the Instance and Seq
// columns.
func instancesInSeqOrder(b *trace.ColumnBatch) bool {
	n := b.Len()
	last := make(map[trace.InstanceID]uint64)
	for i := 0; i < n; {
		j := b.InstanceRun(i, n)
		seq := b.Seq[i:j]
		if prev, ok := last[b.Instance[i]]; ok && seq[0] < prev {
			return false
		}
		for k := 1; k < len(seq); k++ {
			if seq[k] < seq[k-1] {
				return false
			}
		}
		last[b.Instance[i]] = seq[len(seq)-1]
		i = j
	}
	return true
}

// contentionStats aggregates the per-instance cross-thread summaries for the
// -stats plane; nil when the run was entirely single-threaded.
func contentionStats(results []*InstanceResult) *metrics.ContentionStats {
	cs := &metrics.ContentionStats{}
	for _, ir := range results {
		ct := ir.Contention
		if ct == nil {
			continue
		}
		cs.MultiThreadInstances++
		if ct.Contended() {
			cs.ContendedInstances++
		}
		cs.Episodes += ct.Episodes
		cs.EpisodeEvents += ct.EpisodeEvents
		cs.OverflowEvents += ct.OverflowEvents
	}
	if cs.MultiThreadInstances == 0 {
		return nil
	}
	return cs
}

// Run is the one-call convenience driver: it creates a session with the
// paper's asynchronous collector, hands it to the workload, flushes the
// collector, and analyzes everything it saw.
func (d *DSspy) Run(workload func(*trace.Session)) *Report {
	return d.RunCollector(trace.NewAsyncCollector(), workload)
}

// RunSharded is Run on the sharded collector: events are partitioned by
// instance across GOMAXPROCS buffers while the workload executes, and the
// analysis consumes the shards in place.
func (d *DSspy) RunSharded(workload func(*trace.Session)) *Report {
	return d.RunCollector(trace.NewShardedCollector(0), workload)
}

// RunCollector profiles the workload through an explicit collector, closes
// it, and analyzes what it collected.
func (d *DSspy) RunCollector(col trace.Collector, workload func(*trace.Session)) *Report {
	s := trace.NewSessionWith(trace.Options{Recorder: col, CaptureSites: true})
	workload(s)
	col.Close()
	return d.AnalyzeCollector(s, col)
}

// AttachEvents gives an event-free report its retained-event view back, for
// the chart and HTML renderers: AnalyzeCollector and StreamAnalyzer keep the
// folded figures, not the events. events is the sequence-sorted stream the
// report was computed from (e.g. the collector's Events); each instance's
// events fill its Profile.Events in stream order. The profiles' stats stay
// primed, so nothing is refolded. Meant for single-run reports: instance
// ids of a merged fleet report are not unique.
func (r *Report) AttachEvents(events []trace.Event) {
	byID := make(map[trace.InstanceID]*profile.Profile, len(r.Instances))
	for _, ir := range r.Instances {
		p := ir.Profile
		p.Events = make([]trace.Event, 0, p.Len())
		byID[p.Instance.ID] = p
	}
	for _, e := range events {
		if p := byID[e.Instance]; p != nil {
			p.Events = append(p.Events, e)
		}
	}
}

// UseCases returns every detected use case across instances, in instance
// order.
func (r *Report) UseCases() []usecase.UseCase {
	var out []usecase.UseCase
	for _, ir := range r.Instances {
		out = append(out, ir.UseCases...)
	}
	return out
}

// ParallelUseCases returns the use cases with parallel potential.
func (r *Report) ParallelUseCases() []usecase.UseCase {
	var out []usecase.UseCase
	for _, u := range r.UseCases() {
		if u.Kind.Parallel() {
			out = append(out, u)
		}
	}
	return out
}

// CountByKind tallies use cases per kind.
func (r *Report) CountByKind() map[usecase.Kind]int {
	m := make(map[usecase.Kind]int)
	for _, u := range r.UseCases() {
		m[u.Kind]++
	}
	return m
}

// Regularities returns the number of instances whose profiles contain
// recurring regularities (the Table II figure).
func (r *Report) Regularities() int {
	n := 0
	for _, ir := range r.Instances {
		if ir.Regular {
			n++
		}
	}
	return n
}

// SearchSpace summarizes the evaluation's central quantity: how many list
// and array instances exist, how many the use cases reference, and the
// resulting reduction (Table IV).
type SearchSpace struct {
	Total    int // list + array instances in the registry
	Flagged  int // instances referenced by at least one use case
	Referred int // total use cases
}

// Reduction returns 1 - Flagged/Total, the paper's search-space reduction.
func (ss SearchSpace) Reduction() float64 {
	if ss.Total == 0 {
		return 0
	}
	return 1 - float64(ss.Flagged)/float64(ss.Total)
}

// SearchSpace computes the search-space statistics.
func (r *Report) SearchSpace() SearchSpace {
	ss := SearchSpace{}
	for _, inst := range r.Registered {
		if inst.Kind == trace.KindList || inst.Kind == trace.KindArray {
			ss.Total++
		}
	}
	flagged := make(map[trace.InstanceID]bool)
	for _, u := range r.UseCases() {
		ss.Referred++
		switch u.Instance.Kind {
		case trace.KindList, trace.KindArray, trace.KindLinkedList, trace.KindSortedList:
			// Only linear instances are part of the paper's list/array
			// search space; contention findings on dictionaries don't
			// shrink (or inflate) it.
			flagged[u.Instance.ID] = true
		}
	}
	ss.Flagged = len(flagged)
	return ss
}

// FilterMinConfidence drops every use-case detection whose confidence
// (1 - sampling error bound) is below min, returning the number removed.
// Full-fidelity detections have confidence 1 and always survive. The CLI's
// -min-confidence flag applies this before rendering.
func (r *Report) FilterMinConfidence(min float64) int {
	if min <= 0 {
		return 0
	}
	dropped := 0
	for _, ir := range r.Instances {
		kept := ir.UseCases[:0]
		for _, u := range ir.UseCases {
			if u.Confidence() >= min {
				kept = append(kept, u)
			} else {
				dropped++
			}
		}
		ir.UseCases = kept
	}
	return dropped
}

// InstancesWithUseCases returns the distinct instances the engineer still
// has to look at, ordered by id.
func (r *Report) InstancesWithUseCases() []trace.Instance {
	seen := make(map[trace.InstanceID]trace.Instance)
	for _, u := range r.UseCases() {
		seen[u.Instance.ID] = u.Instance
	}
	out := make([]trace.Instance, 0, len(seen))
	for _, inst := range seen {
		out = append(out, inst)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Write renders the report in the paper's Table V layout: one block per use
// case with the class/method, position, data structure and use-case name,
// followed by the recommended action.
func (r *Report) Write(w io.Writer) error {
	ucs := r.UseCases()
	if len(ucs) == 0 {
		_, err := fmt.Fprintln(w, "No use cases detected.")
		return err
	}
	for i, u := range ucs {
		site := u.Instance.Site
		if _, err := fmt.Fprintf(w,
			"Use Case %d\n  Function:       %s\n  Position:       %s:%d\n  Data structure: %s%s\n  Use Case:       %s\n  Evidence:       %s\n  Recommendation: %s\n",
			i+1,
			orUnknown(site.Function),
			filepath.Base(orUnknown(site.File)), site.Line,
			u.Instance.TypeName, labelSuffix(u.Instance.Label),
			u.Kind,
			u.Evidence,
			u.Recommendation,
		); err != nil {
			return err
		}
		// Only lossy streams print a confidence line: a full-fidelity
		// detection is exact, and its block stays byte-identical.
		if u.Bound > 0 {
			if _, err := fmt.Fprintf(w,
				"  Confidence:     %.1f%% (sampling error bound %.4f)\n",
				100*u.Confidence(), u.Bound); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, ir := range r.Instances {
		if ir.Shared.Contended() {
			if _, err := fmt.Fprintf(w,
				"Note: %s%s is accessed by %d threads including %d writer(s); any parallelization must use a synchronized container.\n",
				ir.Profile.Instance.TypeName, labelSuffix(ir.Profile.Instance.Label),
				ir.Shared.Threads, ir.Shared.WritingThreads); err != nil {
				return err
			}
			if ct := ir.Contention; ct.Contended() {
				if _, err := fmt.Fprintf(w,
					"  Contention: %d episode(s) cover %d of %d events (longest %d, %d with writes); %d read / %d write phase(s); %d of %d thread pair(s) potentially concurrent.\n",
					ct.Episodes, ct.EpisodeEvents, ct.Total, ct.MaxEpisode, ct.WriterEpisodes,
					ct.ReadPhases, ct.WritePhases,
					ct.ConcurrentPairs, ct.ConcurrentPairs+ct.OrderedPairs); err != nil {
					return err
				}
			}
		}
	}
	ss := r.SearchSpace()
	_, err := fmt.Fprintf(w, "Search space: %d of %d list/array instances remain (reduction %.2f%%).\n",
		ss.Flagged, ss.Total, 100*ss.Reduction())
	return err
}

func orUnknown(s string) string {
	if s == "" {
		return "<unknown>"
	}
	return s
}

func labelSuffix(label string) string {
	if label == "" {
		return ""
	}
	return fmt.Sprintf(" (%q)", label)
}
