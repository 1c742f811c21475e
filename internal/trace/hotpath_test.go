package trace

import (
	"os"
	"sync"
	"testing"
	"time"
)

// The hot-path acceptance gate and its benchmarks: 8 producing goroutines,
// a sharded collector, and a TimedRecorder clocking the producer-side
// Record cost. `make bench-hotpath` runs the gate with DSSPY_HOTPATH_GATE=1;
// in plain `go test` the latency half skips (wall-clock thresholds are not
// deterministic on shared machines) while the wire-size half lives in
// TestV3BytesPerEventGate and always runs.

const (
	hotPathProducers = 8
	hotPathEvents    = 100_000 // per producer
)

// hotPathRun drives the multi-producer workload and returns the sampled
// per-event Record cost distribution. Per-producer instances plus one shared
// instance mirror the sharded differential workload's shape.
func hotPathRun(batched bool) (p50 time.Duration, delivered uint64) {
	col := NewShardedCollectorOpts(hotPathProducers, 1<<14, Block())
	tr := NewTimedRecorder(col, 0)
	s := NewSessionWith(Options{Recorder: tr, CaptureThreads: true})
	var wg sync.WaitGroup
	for g := 0; g < hotPathProducers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := InstanceID(g + 2)
			if batched {
				p := s.Bind()
				for i := 0; i < hotPathEvents; i++ {
					if i%16 == 0 {
						p.Emit(1, OpRead, i%64, 64) // shared instance
					} else {
						p.Emit(own, OpInsert, i, i)
					}
				}
				p.Close()
			} else {
				for i := 0; i < hotPathEvents; i++ {
					if i%16 == 0 {
						s.Emit(1, OpRead, i%64, 64)
					} else {
						s.Emit(own, OpInsert, i, i)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	col.Close()
	st := col.Stats()
	return tr.Hist().QuantileDuration(0.5), st.Events - st.Dropped
}

// TestHotPathLatencyGate is the CPU half of the overhaul's acceptance bar:
// with 8 producers on the sharded collector, the sampled p50 per-event
// Record cost through Bind-batched delivery must be at least 3× lower than
// per-event Emit. Enabled by DSSPY_HOTPATH_GATE=1 (see `make bench-hotpath`).
func TestHotPathLatencyGate(t *testing.T) {
	if os.Getenv("DSSPY_HOTPATH_GATE") == "" {
		t.Skip("latency gate needs a quiet machine; run via `make bench-hotpath` (DSSPY_HOTPATH_GATE=1)")
	}
	const want = hotPathProducers * hotPathEvents
	perEvent, delivered := hotPathRun(false)
	if delivered != want {
		t.Fatalf("per-event run delivered %d events, want %d", delivered, want)
	}
	batched, delivered := hotPathRun(true)
	if delivered != want {
		t.Fatalf("batched run delivered %d events, want %d", delivered, want)
	}
	t.Logf("p50 per-event Record: %v; p50 batched (amortized): %v; ratio %.1fx",
		perEvent, batched, float64(perEvent)/float64(batched))
	if batched*3 > perEvent {
		t.Fatalf("batched p50 %v is not ≥3× better than per-event p50 %v", batched, perEvent)
	}
}

// BenchmarkHotPathEmit / BenchmarkHotPathBind are the end-to-end pair behind
// the EXPERIMENTS §Hot path table: wall time per event for 8 goroutines
// pushing through the sharded collector, thread capture on.
func benchmarkHotPath(b *testing.B, batched bool) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		col := NewShardedCollectorOpts(hotPathProducers, 1<<14, Block())
		s := NewSessionWith(Options{Recorder: col, CaptureThreads: true})
		b.StartTimer()
		var wg sync.WaitGroup
		for g := 0; g < hotPathProducers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				own := InstanceID(g + 2)
				if batched {
					p := s.Bind()
					for i := 0; i < hotPathEvents; i++ {
						p.Emit(own, OpInsert, i, i)
					}
					p.Close()
				} else {
					for i := 0; i < hotPathEvents; i++ {
						s.Emit(own, OpInsert, i, i)
					}
				}
			}(g)
		}
		wg.Wait()
		col.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hotPathProducers*hotPathEvents), "ns/event")
}

func BenchmarkHotPathEmit(b *testing.B) { benchmarkHotPath(b, false) }
func BenchmarkHotPathBind(b *testing.B) { benchmarkHotPath(b, true) }

// BenchmarkShardedFlushAlternating is the worst case for the batch lane: one
// Bind producer alternating two instances that live on different shards of a
// 2-shard collector, so every 64-event flush touches both shards. It pins
// the cost of scattering a flush into one send per shard, through to Close.
func BenchmarkShardedFlushAlternating(b *testing.B) {
	const events = 1 << 17
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		col := NewShardedCollector(2)
		s := NewSessionWith(Options{Recorder: col})
		b.StartTimer()
		p := s.Bind()
		for j := 0; j < events; j++ {
			p.Emit(InstanceID(2+j%2), OpRead, j, events)
		}
		p.Close()
		col.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

// BenchmarkGoidLookup pins the cost of the sharded goroutine-id table's fast
// path (the per-event price Session.Emit pays with CaptureThreads on).
func BenchmarkGoidLookup(b *testing.B) {
	CurrentThreadID() // warm this goroutine's entry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CurrentThreadID()
	}
}
