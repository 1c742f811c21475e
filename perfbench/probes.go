package main

import (
	"runtime"
	"time"

	"dsspy/internal/apps"
	"dsspy/internal/core"
	"dsspy/internal/dstruct"
	"dsspy/internal/trace"
)

// The probes isolate single layers. They run once per traced run, after
// the timed rounds, identically on every workload.

const (
	loopN     = 1 << 15
	loopOps   = 7 * loopN // accesses per loop: see instrumentedLoop
	probeReps = 7
)

// dropAll is a gate that drops every event with maximal credit, leaving
// only the dstruct proxy layer on the path.
type dropAll struct{}

func (dropAll) Admit(trace.InstanceID, trace.ThreadID) bool           { return false }
func (dropAll) AdmitRun(trace.InstanceID, trace.ThreadID) (bool, int) { return false, 1 << 20 }
func (dropAll) Observe(trace.InstanceID, uint64, uint64)              {}

// instrumentedLoop drives the public List, Array and Dictionary through
// Add/Get/Set/Put the way a program would, bound to a batched producer as
// the CLI binds its workloads.
func instrumentedLoop(s *trace.Session) int {
	p := s.BindDefault()
	defer p.Close()
	sum := 0
	l := dstruct.NewListCap[int](s, loopN)
	for i := 0; i < loopN; i++ {
		l.Add(i)
	}
	for i := 0; i < loopN; i++ {
		l.Set(i, l.Get(i)+1)
	}
	a := dstruct.NewArray[int](s, loopN)
	for i := 0; i < loopN; i++ {
		a.Set(i, i)
		sum += a.Get(i)
	}
	d := dstruct.NewDictionary[int, int](s)
	for i := 0; i < loopN; i++ {
		d.Put(i, i)
		v, _ := d.Get(i)
		sum += v
	}
	return sum
}

// plainLoop is instrumentedLoop on Go's own containers.
func plainLoop() int {
	sum := 0
	l := make([]int, 0, loopN)
	for i := 0; i < loopN; i++ {
		l = append(l, i)
	}
	for i := 0; i < loopN; i++ {
		l[i] = l[i] + 1
	}
	a := make([]int, loopN)
	for i := 0; i < loopN; i++ {
		a[i] = i
		sum += a[i]
	}
	d := map[int]int{}
	for i := 0; i < loopN; i++ {
		d[i] = i
		v := d[i]
		sum += v
	}
	return sum
}

func nsPerOp(fn func() int) float64 {
	runtime.GC()
	t0 := time.Now()
	sink.Add(int64(fn()))
	return float64(time.Since(t0)) / loopOps
}

// dstructProbe returns the per-access cost of the loop at full fidelity
// (events delivered to a recorder that discards them), under the drop-all
// gate, and on plain containers: medians over interleaved repetitions.
func dstructProbe() (admitted, dropped, plain float64) {
	var a, d, p []float64
	for i := 0; i < probeReps; i++ {
		a = append(a, nsPerOp(func() int {
			return instrumentedLoop(trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}, CaptureSites: true}))
		}))
		d = append(d, nsPerOp(func() int {
			return instrumentedLoop(trace.NewSessionWith(trace.Options{Recorder: trace.NullRecorder{}, CaptureSites: true, Gate: dropAll{}}))
		}))
		p = append(p, nsPerOp(plainLoop))
	}
	return median(a), median(d), median(p)
}

// floorProbe is the no-trace floor: each Table IV app instrumented under
// the drop-all gate on the adaptive wiring, over its plain twin; geo-mean
// of the per-app median ratios.
func floorProbe(analyzer *core.DSspy) float64 {
	var ratios []float64
	for _, app := range apps.Apps() {
		var twin, floor []float64
		for i := 0; i < probeReps; i++ {
			runtime.GC()
			t0 := time.Now()
			app.PlainTwin()
			twin = append(twin, float64(time.Since(t0)))

			sa := analyzer.NewStreamAnalyzer(0)
			col := sa.Collector(trace.DefaultAsyncBuffer, trace.Block(), false)
			s := trace.NewSessionWith(trace.Options{Recorder: col, CaptureSites: true, Gate: dropAll{}})
			sa.Attach(s)
			runtime.GC()
			t0 = time.Now()
			p := s.BindDefault()
			app.Instrumented(s)
			p.Close()
			floor = append(floor, float64(time.Since(t0)))
			col.Close()
			sa.Close()
		}
		ratios = append(ratios, median(floor)/median(twin))
	}
	return geomean(ratios)
}

// foldProbe feeds the merged columns of an apps-full round into fresh
// streaming analyzers and returns the fold cost per event.
func foldProbe(analyzer *core.DSspy, runs []keptRun) float64 {
	var fold time.Duration
	events := 0
	for _, kr := range runs {
		cols := kr.col.MergedColumns()
		sa := analyzer.NewStreamAnalyzer(0)
		sa.Attach(kr.s)
		runtime.GC()
		t0 := time.Now()
		sa.FeedColumns(cols)
		fold += time.Since(t0)
		sa.Close()
		events += cols.Len()
	}
	return float64(fold) / float64(max(events, 1))
}
