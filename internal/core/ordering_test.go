package core

import (
	"bytes"
	"sync"
	"testing"

	"dsspy/internal/trace"
)

// lateRecorder delivers every other batch one batch late: the first batch
// is held back and forwarded after the one that follows it. That is what a
// Bind producer does when it reserves its sequence block at flush and is
// preempted before enqueueing, while the next producer flushes past it.
type lateRecorder struct {
	mu   sync.Mutex
	next trace.Recorder
	held []trace.Event
}

func (r *lateRecorder) Record(e trace.Event) { r.RecordBatch([]trace.Event{e}) }

func (r *lateRecorder) RecordBatch(batch []trace.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.held == nil {
		r.held = append([]trace.Event(nil), batch...)
		return
	}
	trace.RecordAll(r.next, batch)
	trace.RecordAll(r.next, r.held)
	r.held = nil
}

// flush forwards a batch still held back.
func (r *lateRecorder) flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.held != nil {
		trace.RecordAll(r.next, r.held)
		r.held = nil
	}
}

// takeTurns runs producers goroutines, each with its own Bind producer, that
// take turns in a fixed ring order for rounds rounds. On its turn goroutine
// g runs step and flushes before passing the turn on, so every turn is one
// delivered batch and the delivery order is deterministic.
func takeTurns(s *trace.Session, producers, rounds int, step func(p *trace.Producer, g, round int)) {
	turns := make([]chan struct{}, producers)
	for i := range turns {
		turns[i] = make(chan struct{}, 1)
	}
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := s.Bind()
			defer p.Close()
			for r := 0; r < rounds; r++ {
				<-turns[g]
				step(p, g, r)
				p.Flush()
				turns[(g+1)%producers] <- struct{}{}
			}
		}(g)
	}
	turns[0] <- struct{}{}
	wg.Wait()
}

// listPhase emits one turn on a list of the given size: a run of appends,
// a forward scan, and every third round a front removal. It returns the
// new size.
func listPhase(p *trace.Producer, id trace.InstanceID, size, round int) int {
	for i := 0; i < 6; i++ {
		size++
		p.Emit(id, trace.OpInsert, size-1, size)
	}
	for i := 0; i < size; i++ {
		p.Emit(id, trace.OpRead, i, size)
	}
	if round%3 == 2 {
		size--
		p.Emit(id, trace.OpDelete, 0, size)
	}
	return size
}

// instanceRuns counts the maximal same-instance runs in a store.
func instanceRuns(b *trace.ColumnBatch) int {
	runs := 0
	for i := 0; i < b.Len(); i = b.InstanceRun(i, b.Len()) {
		runs++
	}
	return runs
}

// TestAnalyzeCollectorOrdering holds the fold-in-place analysis to the
// sequential pipeline on the two shard shapes its ordering pass tells
// apart, byte for byte (text and JSON):
//   - one instance handed between Bind producers whose batches arrive out of
//     sequence order, so its shard store must be sorted before folding;
//   - producers owning distinct instances that share a shard, so the store
//     interleaves instances while each instance stays in order and is
//     folded as it lies.
func TestAnalyzeCollectorOrdering(t *testing.T) {
	const shards, producers, rounds = 2, 4, 12

	t.Run("shared-instance-out-of-order", func(t *testing.T) {
		mem := trace.NewMemRecorder()
		sharded := trace.NewShardedCollectorSize(shards, 64)
		late := &lateRecorder{next: sharded}
		s := trace.NewSessionWith(trace.Options{
			Recorder:       trace.TeeRecorder{mem, late},
			CaptureSites:   true,
			CaptureThreads: true,
		})
		shared := s.Register(trace.KindList, "List[int]", "shared", 0)
		size := 0 // guarded by the turn ring
		takeTurns(s, producers, rounds, func(p *trace.Producer, _, round int) {
			size = listPhase(p, shared, size, round)
		})
		late.flush()
		sharded.Close()

		store := sharded.ShardColumns()[int(shared)%shards]
		if instancesInSeqOrder(store) {
			t.Fatal("the shared instance's shard store is in sequence order; the sort path would not run")
		}
		assertCollectorMatchesAnalyze(t, s, mem, sharded)
		if !instancesInSeqOrder(store) {
			t.Fatal("AnalyzeCollector left the shard store out of sequence order")
		}
	})

	t.Run("owned-instances-interleaved", func(t *testing.T) {
		mem := trace.NewMemRecorder()
		sharded := trace.NewShardedCollectorSize(shards, 64)
		s := trace.NewSessionWith(trace.Options{
			Recorder:       trace.TeeRecorder{mem, sharded},
			CaptureSites:   true,
			CaptureThreads: true,
		})
		// Register two instances per producer and keep the even ids, so all
		// owned instances share shard 0.
		owned := make([]trace.InstanceID, 0, producers)
		for len(owned) < producers {
			if id := s.Register(trace.KindList, "List[int]", "owned", 0); int(id)%shards == 0 {
				owned = append(owned, id)
			}
		}
		sizes := make([]int, producers)
		takeTurns(s, producers, rounds, func(p *trace.Producer, g, round int) {
			sizes[g] = listPhase(p, owned[g], sizes[g], round)
		})
		sharded.Close()

		store := sharded.ShardColumns()[0]
		if !instancesInSeqOrder(store) {
			t.Fatal("owned instances arrived out of sequence order")
		}
		if runs := instanceRuns(store); runs <= producers {
			t.Fatalf("shard store holds %d instance runs for %d instances; want them interleaved", runs, producers)
		}
		assertCollectorMatchesAnalyze(t, s, mem, sharded)
	})
}

func assertCollectorMatchesAnalyze(t *testing.T, s *trace.Session, mem *trace.MemRecorder, sharded *trace.ShardedCollector) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = 1
	want := renderReport(t, NewWith(cfg).Analyze(s, mem.Events()))
	got := renderReport(t, New().AnalyzeCollector(s, sharded))
	if !bytes.Equal(want, got) {
		t.Fatalf("AnalyzeCollector report differs from sequential Analyze:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// secondThreadEvents is one instance's stream in which a second thread
// appears mid-run: thread 1 fills the list alone, thread 2 sorts it and
// scans it backwards, thread 1 scans it forwards and drains the front. The
// sort directly follows the insertion run thread 1 left open, across the
// thread switch — a Sort-After-Insert only the global detector can see, and
// only when it was forked with that open run.
func secondThreadEvents(id trace.InstanceID) (events []trace.Event, firstOfThread2 int) {
	emit := func(thr trace.ThreadID, op trace.Op, idx, size int) {
		events = append(events, trace.Event{
			Seq: uint64(len(events) + 1), Instance: id, Thread: thr, Op: op, Index: idx, Size: size,
		})
	}
	const n = 120
	for i := 0; i < n; i++ {
		emit(1, trace.OpInsert, i, i+1)
	}
	firstOfThread2 = len(events)
	emit(2, trace.OpSort, trace.NoIndex, n)
	for i := n - 1; i >= 0; i-- {
		emit(2, trace.OpRead, i, n)
	}
	for i := 0; i < n; i++ {
		emit(1, trace.OpRead, i, n)
	}
	for i := n - 1; i >= n-10; i-- {
		emit(1, trace.OpDelete, 0, i)
	}
	return events, firstOfThread2
}

// TestSnapshotSecondThreadForksGlobal covers the lazily forked global
// detector. A single-thread instance segments once: its sole per-thread
// detector stands in for the global one until a second thread appears. A
// snapshot taken before that moment, one taken after it, and the final
// report must all equal the batch drivers over the same prefix, on
// both the per-event and the columnar feed (where the fork lands inside a
// batch).
func TestSnapshotSecondThreadForksGlobal(t *testing.T) {
	s := trace.NewSession()
	id := s.Register(trace.KindList, "List[int]", "forked", 0)
	events, fork := secondThreadEvents(id)
	// The second cut lands inside a batch on the columnar feed.
	cuts := []int{fork / 2, fork + 1, fork + 90, len(events)}

	batch := func(n int) []byte {
		return renderReport(t, batchDriverReport(DefaultConfig(), s, events[:n]))
	}
	columns := func(evs []trace.Event) *trace.ColumnBatch {
		var b trace.ColumnBatch
		b.AppendEvents(evs)
		return &b
	}

	for _, columnar := range []bool{false, true} {
		sa := New().NewStreamAnalyzer(1)
		sa.Attach(s)
		at := 0
		for _, cut := range cuts {
			if columnar {
				sa.FeedColumns(columns(events[at:cut]))
			} else {
				sa.Feed(events[at:cut]...)
			}
			at = cut
			snap := renderReport(t, sa.Snapshot())
			if want := batch(cut); !bytes.Equal(want, snap) {
				t.Fatalf("columnar=%v: snapshot after %d of %d events (second thread from %d) differs:\n--- want ---\n%s\n--- got ---\n%s",
					columnar, cut, len(events), fork, want, snap)
			}
		}
		if got, want := renderReport(t, sa.Close()), batch(len(events)); !bytes.Equal(want, got) {
			t.Fatalf("columnar=%v: final report differs after snapshots:\n--- want ---\n%s\n--- got ---\n%s",
				columnar, want, got)
		}
	}
}
