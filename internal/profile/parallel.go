// Parallel profile construction. Build sorts the whole flat stream and
// groups it sequentially, which is the right shape for small post-mortem
// traces but becomes the bottleneck on million-event runs: the global
// sort.Slice is O(E log E) with a reflection-heavy constant, and the copy
// doubles peak memory. BuildParallel instead counts and then scatters
// contiguous chunks of the stream concurrently into exact per-instance
// buckets, and only sorts an instance's events when they are actually out of
// order — on single-producer instances the arrival order already is the
// sequence order, so the sort is skipped.
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

	// Stage 1: count events per instance, one counter per contiguous chunk so
	// workers share nothing.
	size := (len(events) + workers - 1) / workers
	groups := make([]chunkGroup, (len(events)+size-1)/size)
	chunk := func(i int) []trace.Event { return events[i*size : min((i+1)*size, len(events))] }
	par.For(len(groups), workers, func(i int) { groups[i] = countChunk(chunk(i)) })

	// Stage 2: lay out one backing array with a bucket per instance, in id
	// order, and give every chunk's share of a bucket its own span, in chunk
	// order. A bucket's spans are adjacent, so the scatter below fills it in
	// arrival order with no later concatenation.
	rank := make(map[trace.InstanceID]int)
	for _, g := range groups {
		for _, id := range g.ids {
			rank[id] = 0
		}
	}
	ids := make([]trace.InstanceID, 0, len(rank))
	for id := range rank {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for r, id := range ids {
		rank[id] = r
	}
	offs := make([]int, len(ids)+1)
	for _, g := range groups {
		for k, id := range g.ids {
			offs[rank[id]+1] += g.counts[k]
		}
	}
	for r := range ids {
		offs[r+1] += offs[r]
	}
	cursor := append([]int(nil), offs[:len(ids)]...)
	spans := make([][]span, len(ids))
	for i := range groups {
		g := &groups[i]
		g.start = make([]int, len(g.ids))
		for k, id := range g.ids {
			r := rank[id]
			g.start[k] = cursor[r]
			cursor[r] += g.counts[k]
			spans[r] = append(spans[r], span{chunk: i, slot: k})
		}
	}

	// Stage 3: scatter each chunk into its spans, noting per span whether it
	// came out in sequence order.
	backing := make([]trace.Event, len(events))
	par.For(len(groups), workers, func(i int) { groups[i].scatter(chunk(i), backing) })

	// Stage 4: restore chronological order per instance. A bucket is already
	// in order when every span is and each seam between spans is. Sequence
	// numbers are unique per session, so the order is total and the outcome
	// is byte-identical to Build's global sort.
	profiles := make([]*Profile, len(ids))
	par.For(len(ids), workers, func(r int) {
		evs := backing[offs[r]:offs[r+1]:offs[r+1]]
		sorted := true
		for n, sp := range spans[r] {
			g := &groups[sp.chunk]
			at := g.start[sp.slot]
			if !g.sorted[sp.slot] || n > 0 && backing[at-1].Seq >= backing[at].Seq {
				sorted = false
				break
			}
		}
		if !sorted {
			sort.Slice(evs, func(a, b int) bool { return evs[a].Seq < evs[b].Seq })
		}
		inst, ok := s.Instance(ids[r])
		if !ok {
			inst = trace.Instance{ID: ids[r], TypeName: "<unregistered>"}
		}
		profiles[r] = &Profile{Instance: inst, Events: evs}
	})
	return profiles
}

// span names one chunk's share of an instance bucket: slot k of chunk i.
type span struct{ chunk, slot int }

// chunkGroup is one chunk's view of the instances: ids in first-seen order
// with their event counts (stage 1), where each id's span starts in the
// shared backing array (stage 2), and whether the span came out of the
// scatter in sequence order (stage 3) — known for free while filling, and it
// spares stage 4 a full re-scan.
type chunkGroup struct {
	slot   map[trace.InstanceID]int
	ids    []trace.InstanceID
	counts []int
	start  []int
	sorted []bool
}

// countChunk counts one chunk's events per instance. The slot cache skips
// the map lookup while consecutive events hit the same instance — the common
// case, since access events arrive in per-instance runs.
func countChunk(events []trace.Event) chunkGroup {
	g := chunkGroup{slot: make(map[trace.InstanceID]int)}
	if len(events) == 0 {
		return g
	}
	lastID, lastSlot := events[0].Instance, -1
	for _, e := range events {
		k := lastSlot
		if k < 0 || e.Instance != lastID {
			var ok bool
			if k, ok = g.slot[e.Instance]; !ok {
				k = len(g.ids)
				g.slot[e.Instance] = k
				g.ids = append(g.ids, e.Instance)
				g.counts = append(g.counts, 0)
			}
			lastID, lastSlot = e.Instance, k
		}
		g.counts[k]++
	}
	return g
}

// scatter copies the chunk's events into their spans of backing.
func (g *chunkGroup) scatter(events []trace.Event, backing []trace.Event) {
	if len(events) == 0 {
		return
	}
	fill := append([]int(nil), g.start...)
	lastSeq := make([]uint64, len(g.ids))
	g.sorted = make([]bool, len(g.ids))
	for k := range g.sorted {
		g.sorted[k] = true
	}
	lastID, lastSlot := events[0].Instance, -1
	for _, e := range events {
		k := lastSlot
		if k < 0 || e.Instance != lastID {
			k = g.slot[e.Instance]
			lastID, lastSlot = e.Instance, k
		}
		if e.Seq < lastSeq[k] {
			g.sorted[k] = false
		}
		lastSeq[k] = e.Seq
		backing[fill[k]] = e
		fill[k]++
	}
}
