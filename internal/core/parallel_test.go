package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dsspy/internal/dstruct"
	"dsspy/internal/metrics"
	"dsspy/internal/trace"
)

// parallelWorkload drives several goroutines through instrumented containers
// with distinct per-goroutine access idioms, so the trace mixes long
// inserts, scans and queue discipline across many instances.
func parallelWorkload(s *trace.Session) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := dstruct.NewList[int](s)
			for c := 0; c < 3; c++ {
				for i := 0; i < 200; i++ {
					l.Add(i)
				}
				for i := 0; i < l.Len(); i++ {
					l.Get(i)
				}
				l.Clear()
			}
			q := dstruct.NewList[int](s)
			for i := 0; i < 50; i++ {
				q.Add(i)
			}
			for q.Len() > 0 {
				q.RemoveAt(0)
			}
		}(g)
	}
	wg.Wait()
}

func renderReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnalyzeWorkerCountInvariant is the determinism guarantee: the rendered
// report (use cases, ordering, search-space figures, JSON export) must be
// byte-identical no matter how many analysis workers run.
func TestAnalyzeWorkerCountInvariant(t *testing.T) {
	mem := trace.NewMemRecorder()
	s := trace.NewSessionWith(trace.Options{Recorder: mem, CaptureSites: true})
	parallelWorkload(s)
	events := mem.Events()

	cfg := DefaultConfig()
	cfg.Workers = 1
	want := renderReport(t, NewWith(cfg).Analyze(s, events))

	for _, workers := range []int{0, 2, 8} {
		cfg.Workers = workers
		got := renderReport(t, NewWith(cfg).Analyze(s, events))
		if !bytes.Equal(want, got) {
			t.Fatalf("Workers=%d report differs from Workers=1:\n--- want ---\n%s\n--- got ---\n%s",
				workers, want, got)
		}
	}
}

// TestAnalyzeCollectorShardedMatchesFlat feeds one identical event stream to
// the sequential pipeline and to the sharded fast path (per-shard in-place
// profile construction) and requires byte-identical reports.
func TestAnalyzeCollectorShardedMatchesFlat(t *testing.T) {
	mem := trace.NewMemRecorder()
	sharded := trace.NewShardedCollectorSize(4, 1024)
	s := trace.NewSessionWith(trace.Options{
		Recorder:     trace.TeeRecorder{mem, sharded},
		CaptureSites: true,
	})
	parallelWorkload(s)
	sharded.Close()

	cfg := DefaultConfig()
	cfg.Workers = 1
	want := renderReport(t, NewWith(cfg).Analyze(s, mem.Events()))
	got := renderReport(t, New().AnalyzeCollector(s, sharded))
	if !bytes.Equal(want, got) {
		t.Fatalf("sharded fast-path report differs from sequential pipeline:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// stageNames lists the stage clocks of a report, in order.
func stageNames(st *metrics.PipelineStats) []string {
	var names []string
	for _, stage := range st.Stages {
		names = append(names, stage.Name)
	}
	return names
}

// TestReportStatsPopulated checks the observability surface: stage clocks,
// worker count and collector queue statistics all arrive on Report.Stats.
// Every listed stage is a phase that ran and was timed: AnalyzeCollector
// orders, folds and finalizes the shard stores; Analyze builds profiles
// first instead of ordering.
func TestReportStatsPopulated(t *testing.T) {
	workload := func(s *trace.Session) {
		l := dstruct.NewList[int](s)
		for i := 0; i < 5000; i++ {
			l.Add(i)
		}
	}
	flat := New().Run(workload).Stats
	if got, want := fmt.Sprint(stageNames(flat)), "[build-profiles fold finalize]"; got != want {
		t.Fatalf("Analyze stages = %s, want %s", got, want)
	}
	for _, stage := range flat.Stages {
		if stage.Count == 0 {
			t.Fatalf("Analyze stage %s never observed", stage.Name)
		}
	}

	rep := New().RunSharded(workload)
	st := rep.Stats
	if st == nil {
		t.Fatal("Report.Stats is nil")
	}
	if st.Events != 5000 || st.Instances != 1 || st.Workers < 1 {
		t.Fatalf("stats = %d events, %d instances, %d workers", st.Events, st.Instances, st.Workers)
	}
	if st.Wall <= 0 {
		t.Fatal("stats wall time not measured")
	}
	if got, want := fmt.Sprint(stageNames(st)), "[order fold finalize]"; got != want {
		t.Fatalf("AnalyzeCollector stages = %s, want %s", got, want)
	}
	for _, stage := range st.Stages {
		if stage.Count == 0 {
			t.Fatalf("stage %s never observed", stage.Name)
		}
	}
	if st.Collector == nil {
		t.Fatal("collector stats not attached")
	}
	if st.Collector.Events != 5000 {
		t.Fatalf("collector events = %d, want 5000", st.Collector.Events)
	}
	var sb bytes.Buffer
	if err := st.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() == 0 {
		t.Fatal("stats render empty")
	}
}

// TestRunShardedMatchesRun repeats the same deterministic single-goroutine
// workload through both drivers; findings must agree.
func TestRunShardedMatchesRun(t *testing.T) {
	workload := func(s *trace.Session) {
		l := dstruct.NewListLabeled[int](s, "work")
		for c := 0; c < 12; c++ {
			for i := 0; i < 150; i++ {
				l.Add(i)
			}
			for i := 0; i < l.Len(); i++ {
				l.Get(i)
			}
			l.Clear()
		}
	}
	a := New().Run(workload)
	b := New().RunSharded(workload)
	au, bu := a.UseCases(), b.UseCases()
	if len(au) != len(bu) {
		t.Fatalf("Run found %d use cases, RunSharded %d", len(au), len(bu))
	}
	for i := range au {
		if au[i].Kind != bu[i].Kind || au[i].Evidence != bu[i].Evidence {
			t.Fatalf("use case %d differs: %v vs %v", i, au[i], bu[i])
		}
	}
}
