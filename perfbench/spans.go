package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// calls it makes. Parent indexes the enclosing span (-1 for a round), and
// every span of one round carries that round's id.
type span struct {
	Name   string `json:"name"`
	Round  int    `json:"round"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced rounds pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span measured by the caller and returns its index.
func (t *tracer) add(round, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name:   name,
		Round:  round,
		Parent: parent,
		Start:  int64(start.Sub(t.t0)),
		End:    int64(end.Sub(t.t0)),
	})
	return len(t.spans) - 1
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(round, parent int, name string) int {
	now := time.Now()
	return t.add(round, parent, name, now, now)
}

func (t *tracer) close(i int) {
	if t == nil || i < 0 {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: a span's duration
// minus the part of it that its children's intervals cover (overlapping
// children, such as concurrent producers, are counted once).
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		covered := int64(0)
		var ivs [][2]int64
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)})
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var cur [2]int64
		open := false
		for _, iv := range ivs {
			if iv[1] <= iv[0] {
				continue
			}
			if open && iv[0] <= cur[1] {
				cur[1] = max(cur[1], iv[1])
				continue
			}
			if open {
				covered += cur[1] - cur[0]
			}
			cur, open = iv, true
		}
		if open {
			covered += cur[1] - cur[0]
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// writeSelfTimes prints each span name's self time per traced round.
func (t *tracer) writeSelfTimes(w io.Writer, rounds int) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	per := func(d time.Duration) float64 { return ms(d) / float64(max(rounds, 1)) }
	fmt.Fprintf(w, "self time by span, ms per traced round (%d rounds):\n", rounds)
	byLayer := map[string]time.Duration{}
	for _, n := range names {
		fmt.Fprintf(w, "  %-18s %-8s %10.3f\n", n, spanLayer[n], per(self[n]))
		byLayer[spanLayer[n]] += self[n]
	}
	fmt.Fprintln(w, "self time by layer, ms per traced round:")
	for _, l := range []string{"program", "trace", "core", "apps", "bench"} {
		fmt.Fprintf(w, "  %-8s %10.3f\n", l, per(byLayer[l]))
	}
}

// spanLayer names the layer each span boundary times. "program" is the
// instrumented program itself: app code, dstruct proxies and the producer's
// event delivery, which the reconciliation lines split further.
var spanLayer = map[string]string{
	"round":           "bench",
	"app":             "bench",
	"twin":            "apps",
	"warmup":          "program",
	"workload":        "program",
	"producers":       "program",
	"producer":        "program",
	"producer_close":  "trace",
	"collector_close": "trace",
	"finish_session":  "trace",
	"server_drain":    "trace",
	"server_close":    "trace",
	"analyze":         "core",
	"stream_close":    "core",
}

func (t *tracer) save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
