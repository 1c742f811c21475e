package core

import (
	"bytes"
	"testing"

	"dsspy/internal/apps"
	"dsspy/internal/pattern"
	"dsspy/internal/profile"
	"dsspy/internal/trace"
	"dsspy/internal/usecase"
)

// batchDriverReport is the oracle that does not share the engine's wiring
// of the reducers: it analyzes the events with the batch drivers of
// profile, pattern and usecase, stage by stage per instance — profiles from
// profile.Build, per-thread pattern summaries, use cases over the cached
// run list, regularity over the interleaved segmentation, shared access and
// contention from the retained profile. Analyze, AnalyzeCollector and
// StreamAnalyzer all fold through instanceStream, so comparing them with
// each other cannot catch a fault in that wiring; comparing with this can.
func batchDriverReport(cfg Config, s *trace.Session, events []trace.Event) *Report {
	profiles := profile.Build(s, events)
	results := make([]*InstanceResult, len(profiles))
	for i, p := range profiles {
		st := p.Stats()
		sum := pattern.SummarizeThreads(p, cfg.Pattern)
		gsum := sum
		var ct *profile.Contention
		if st.Threads > 1 {
			gsum = pattern.Summarize(p, cfg.Pattern)
			ct = p.Contention()
		}
		results[i] = &InstanceResult{
			Profile:    p,
			Summary:    sum,
			UseCases:   usecase.DetectWithSummary(p, sum, cfg.Thresholds),
			Regular:    pattern.RegularityFrom(gsum, st, cfg.Regularity),
			Shared:     profile.SharedAccessOf(p),
			Contention: ct,
		}
	}
	return &Report{Instances: results, Registered: s.Instances()}
}

// TestAnalyzeMatchesBatchDrivers holds both batch entry points to the
// batch-driver oracle, byte for byte, on the evaluation apps (the
// concurrency study included) and the multi-goroutine workload.
func TestAnalyzeMatchesBatchDrivers(t *testing.T) {
	// The Table IV apps are single-goroutine and run behind a bound
	// producer, as the CLI runs them; the others spawn their own goroutines.
	type workload struct {
		run   func(*trace.Session)
		bound bool
	}
	workloads := map[string]workload{
		"parallel":          {parallelWorkload, false},
		apps.Contend().Name: {apps.Contend().Instrumented, false},
	}
	for _, app := range apps.Apps() {
		workloads[app.Name] = workload{app.Instrumented, true}
	}
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			mem := trace.NewMemRecorder()
			sharded := trace.NewShardedCollectorSize(4, 1024)
			s := trace.NewSessionWith(trace.Options{
				Recorder:       trace.TeeRecorder{mem, sharded},
				CaptureSites:   true,
				CaptureThreads: !w.bound,
			})
			if w.bound {
				p := s.BindDefault()
				w.run(s)
				p.Close()
			} else {
				w.run(s)
			}
			sharded.Close()
			events := mem.Events()

			want := renderReport(t, batchDriverReport(DefaultConfig(), s, events))
			if got := renderReport(t, New().Analyze(s, events)); !bytes.Equal(want, got) {
				t.Fatalf("Analyze differs from the batch drivers:\n--- want ---\n%s\n--- got ---\n%s", want, got)
			}
			if got := renderReport(t, New().AnalyzeCollector(s, sharded)); !bytes.Equal(want, got) {
				t.Fatalf("AnalyzeCollector differs from the batch drivers:\n--- want ---\n%s\n--- got ---\n%s", want, got)
			}
		})
	}
}
