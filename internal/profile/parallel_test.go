package profile

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dsspy/internal/trace"
)

// synthEvents builds a shuffled multi-instance stream: the kind of arrival
// order interleaved producers hand the collectors.
func synthEvents(t *testing.T, n, instances int) (*trace.Session, []trace.Event) {
	t.Helper()
	s := trace.NewSession()
	for i := 0; i < instances; i++ {
		s.Register(trace.KindList, "List[int]", "", 0)
	}
	rng := rand.New(rand.NewSource(42))
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.Event{
			Seq:      uint64(i + 1),
			Instance: trace.InstanceID(rng.Intn(instances+1) + 1), // +1 sometimes unregistered
			Op:       trace.OpRead,
			Index:    rng.Intn(64),
			Size:     64,
		}
	}
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	return s, events
}

func profilesEqual(t *testing.T, want, got []*Profile) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("profile count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Instance != got[i].Instance {
			t.Fatalf("profile %d instance %+v, want %+v", i, got[i].Instance, want[i].Instance)
		}
		if !reflect.DeepEqual(want[i].Events, got[i].Events) {
			t.Fatalf("profile %d (instance %d) events differ", i, want[i].Instance.ID)
		}
	}
}

func TestBuildParallelMatchesBuild(t *testing.T) {
	s, events := synthEvents(t, 50000, 17)
	want := Build(s, events)
	for _, workers := range []int{1, 2, 4, 13} {
		profilesEqual(t, want, BuildParallel(s, events, workers))
	}
}

// TestBuildParallelMatchesBuildOnShardLayout feeds BuildParallel shard
// stores laid end to end: chunks then split instances mid-store and the
// per-instance concatenation must still restore chronological order.
func TestBuildParallelMatchesBuildOnShardLayout(t *testing.T) {
	s, events := synthEvents(t, 50000, 17)
	want := Build(s, events)
	concat := func(per [][]trace.Event) []trace.Event {
		var out []trace.Event
		for _, evs := range per {
			out = append(out, evs...)
		}
		return out
	}

	// Partitioned by instance, the sharded collector's layout.
	const shards = 4
	per := make([][]trace.Event, shards)
	for _, e := range events {
		sh := int(e.Instance) % shards
		per[sh] = append(per[sh], e)
	}
	// An instance's events straddling stores (no partitioning guarantee).
	split := make([][]trace.Event, 3)
	for i, e := range events {
		split[i%3] = append(split[i%3], e)
	}
	for _, layout := range [][]trace.Event{concat(per), concat(split)} {
		for _, workers := range []int{2, 4, 13} {
			profilesEqual(t, want, BuildParallel(s, layout, workers))
		}
	}
}

func TestBuildParallelDoesNotMutateInput(t *testing.T) {
	s, events := synthEvents(t, 2*parallelBuildThreshold, 5)
	in := make([]trace.Event, len(events))
	copy(in, events)
	BuildParallel(s, in, 2)
	if !reflect.DeepEqual(in, events) {
		t.Fatal("BuildParallel reordered the caller's event slice")
	}
}

// TestBuildParallelInstancesStraddleEveryChunk pins the chunk scatter: every
// instance has events in every chunk, so each bucket is filled from one span
// per chunk. The layouts cover a stream already in order (no sort needed),
// spans out of order at their seams (the second half of the stream first),
// and a span out of order inside (same-instance neighbours swapped).
func TestBuildParallelInstancesStraddleEveryChunk(t *testing.T) {
	const instances = 3
	s := trace.NewSession()
	for i := 0; i < instances; i++ {
		s.Register(trace.KindList, "List[int]", "", 0)
	}
	n := 4 * parallelBuildThreshold
	inOrder := make([]trace.Event, n)
	for i := range inOrder {
		inOrder[i] = trace.Event{
			Seq:      uint64(i + 1),
			Instance: trace.InstanceID(i%instances + 1),
			Op:       trace.OpRead,
			Index:    i % 64,
			Size:     64,
		}
	}
	seams := append(append([]trace.Event(nil), inOrder[n/2:]...), inOrder[:n/2]...)
	inside := append([]trace.Event(nil), inOrder...)
	for i := 0; i+instances < n; i += 5 * instances {
		inside[i], inside[i+instances] = inside[i+instances], inside[i]
	}
	layouts := []struct {
		name   string
		events []trace.Event
	}{{"in-order", inOrder}, {"seams", seams}, {"inside", inside}}
	for _, l := range layouts {
		want := Build(s, l.events)
		for _, workers := range []int{2, 3, 4, 7} {
			t.Run(fmt.Sprintf("%s/workers=%d", l.name, workers), func(t *testing.T) {
				profilesEqual(t, want, BuildParallel(s, l.events, workers))
			})
		}
	}
}
