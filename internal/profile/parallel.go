// Parallel profile construction. Build sorts the whole flat stream and
// groups it sequentially, which is the right shape for small post-mortem
// traces but becomes the bottleneck on million-event runs: the global
// sort.Slice is O(E log E) with a reflection-heavy constant, and the copy
// doubles peak memory. BuildParallel instead groups contiguous chunks of the
// stream concurrently, concatenates per instance, and only sorts an
// instance's events when they are actually out of order — on
// single-producer instances the arrival order already is the sequence
// order, so the sort is skipped after one O(n) check.
package profile

import (
	"sort"

	"dsspy/internal/par"
	"dsspy/internal/trace"
)

// parallelBuildThreshold is the stream size below which BuildParallel
// delegates to the sequential Build: goroutine fan-out costs more than it
// saves on small traces.
const parallelBuildThreshold = 1 << 14

// BuildParallel is Build with a bounded worker pool. The result is identical
// to Build — per-instance events in sequence order, profiles ordered by
// instance id — regardless of the worker count. The events are only read,
// never reordered.
func BuildParallel(s *trace.Session, events []trace.Event, workers int) []*Profile {
	if workers <= 0 {
		workers = par.DefaultParallelism()
	}
	if workers == 1 || len(events) < parallelBuildThreshold {
		return Build(s, events)
	}

	// Stage 1: chunk-local grouping, one grouper per contiguous chunk so
	// workers share nothing. Two passes per chunk: count events per
	// instance, then carve exact-size buckets out of one backing array. That
	// replaces append regrowth (which re-copies every event roughly twice on
	// million-event chunks) with a single copy, and the slot cache skips the
	// map lookup while consecutive events hit the same instance — the common
	// case, since access events arrive in per-instance runs.
	size := (len(events) + workers - 1) / workers
	groups := make([]chunkGroup, (len(events)+size-1)/size)
	par.For(len(groups), workers, func(i int) {
		lo := i * size
		groups[i] = groupChunk(events[lo:min(lo+size, len(events))])
	})

	// Stage 2: merge per instance, concatenating in chunk order so the
	// result is deterministic before the final per-instance ordering pass.
	// An instance seen in only one chunk adopts the stage-1 bucket without
	// copying, and carries the fill pass's sortedness verdict along; a
	// concatenation stays sorted when both halves are and the seam is in
	// order.
	byInstance := make(map[trace.InstanceID]instanceEvents)
	for _, g := range groups {
		for k, id := range g.ids {
			evs, srt := g.buckets[k], g.sorted[k]
			if cur, ok := byInstance[id]; ok {
				srt = srt && cur.sorted && len(cur.evs) > 0 && len(evs) > 0 &&
					cur.evs[len(cur.evs)-1].Seq < evs[0].Seq
				byInstance[id] = instanceEvents{append(cur.evs, evs...), srt}
			} else {
				byInstance[id] = instanceEvents{evs, srt}
			}
		}
	}

	ids := make([]trace.InstanceID, 0, len(byInstance))
	for id := range byInstance {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// Stage 3: restore chronological order per instance. Sequence numbers
	// are unique per session, so the order is total and the outcome is
	// byte-identical to Build's global sort.
	profiles := make([]*Profile, len(ids))
	par.For(len(ids), workers, func(i int) {
		ie := byInstance[ids[i]]
		evs := ie.evs
		if !ie.sorted {
			sort.Slice(evs, func(a, b int) bool { return evs[a].Seq < evs[b].Seq })
		}
		inst, ok := s.Instance(ids[i])
		if !ok {
			inst = trace.Instance{ID: ids[i], TypeName: "<unregistered>"}
		}
		profiles[i] = &Profile{Instance: inst, Events: evs}
	})
	return profiles
}

// instanceEvents is one instance's events during the stage-2 merge, plus
// whether they are already in sequence order.
type instanceEvents struct {
	evs    []trace.Event
	sorted bool
}

// chunkGroup is the stage-1 output for one chunk: instance ids in first-seen
// order and one event bucket per id, all buckets carved from one backing
// array. sorted[k] records whether bucket k came out of the fill pass already
// in sequence order — known for free while filling, and it spares stage 3 a
// full re-scan for adopted buckets.
type chunkGroup struct {
	ids     []trace.InstanceID
	buckets [][]trace.Event
	sorted  []bool
}

// groupChunk splits one chunk's events by instance with exact allocation.
func groupChunk(events []trace.Event) chunkGroup {
	if len(events) == 0 {
		return chunkGroup{}
	}
	slot := make(map[trace.InstanceID]int)
	var ids []trace.InstanceID
	var counts []int
	lastID, lastSlot := events[0].Instance, -1
	for _, e := range events {
		k := lastSlot
		if k < 0 || e.Instance != lastID {
			var ok bool
			if k, ok = slot[e.Instance]; !ok {
				k = len(ids)
				slot[e.Instance] = k
				ids = append(ids, e.Instance)
				counts = append(counts, 0)
			}
			lastID, lastSlot = e.Instance, k
		}
		counts[k]++
	}

	// Prefix offsets carve the backing array; full (three-index) slices keep
	// a later append from clobbering the neighbouring bucket.
	backing := make([]trace.Event, len(events))
	offs := make([]int, len(ids)+1)
	for k, c := range counts {
		offs[k+1] = offs[k] + c
	}
	buckets := make([][]trace.Event, len(ids))
	fill := make([]int, len(ids))
	lastSeq := make([]uint64, len(ids))
	sorted := make([]bool, len(ids))
	for k := range buckets {
		buckets[k] = backing[offs[k]:offs[k+1]:offs[k+1]]
		sorted[k] = true
	}
	lastSlot = -1
	for _, e := range events {
		k := lastSlot
		if k < 0 || e.Instance != lastID {
			k = slot[e.Instance]
			lastID, lastSlot = e.Instance, k
		}
		if e.Seq < lastSeq[k] {
			sorted[k] = false
		}
		lastSeq[k] = e.Seq
		backing[offs[k]+fill[k]] = e
		fill[k]++
	}
	return chunkGroup{ids: ids, buckets: buckets, sorted: sorted}
}
