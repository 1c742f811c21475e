package trace

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// alternatingBatch builds a producer-sized batch that alternates two
// instances, one per shard of a 2-shard collector — the shape of
// Mandelbrot's image/colors loop.
func alternatingBatch(seq uint64, n int) []Event {
	batch := make([]Event, n)
	for i := range batch {
		batch[i] = Event{Seq: seq + uint64(i), Instance: InstanceID(2 + i%2), Op: OpRead, Index: i}
	}
	return batch
}

// TestRecordBatchOneSendPerShard is the regression test for run-splitting:
// a Bind producer alternating two instances on different shards must cost
// at most one batch-lane send per shard per flush, not one per event.
func TestRecordBatchOneSendPerShard(t *testing.T) {
	c := NewShardedCollector(2)
	s := NewSessionWith(Options{Recorder: c})
	p := s.Bind()
	const n = 100 * DefaultBatchSize
	for i := 0; i < n; i++ {
		p.Emit(InstanceID(2+i%2), OpRead, i, n)
	}
	p.Close()
	c.Close()

	flushes := s.BatchStats().Flushes
	cs := c.Stats()
	var batches, batched uint64
	for i := range cs.ShardBatches {
		batches += cs.ShardBatches[i]
		batched += cs.ShardBatchEvents[i]
	}
	if batches > 2*flushes {
		t.Fatalf("%d batch-lane sends for %d flushes, want at most %d (one per shard touched)", batches, flushes, 2*flushes)
	}
	if batched != n || cs.Delivered() != n {
		t.Fatalf("batch lane carried %d events, delivered %d, want %d", batched, cs.Delivered(), n)
	}
	for si, cols := range c.ShardColumns() {
		if cols.Len() != n/2 {
			t.Fatalf("shard %d holds %d events, want %d", si, cols.Len(), n/2)
		}
		if !cols.IsSortedBySeq() {
			t.Fatalf("shard %d store lost producer order", si)
		}
	}
}

// TestRecordBatchScatterZeroAlloc pins the steady-state cost of a flush: with
// every lane full and the drains stalled, each RecordBatch scatters into
// pooled per-shard batches and drops them back into the pool, for any shard
// count — no per-call scratch, no fallback path above some shard count.
func TestRecordBatchScatterZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, shards := range []int{2, 100} {
		release := make(chan struct{})
		var entered atomic.Int64
		sink := func(int, *ColumnBatch) {
			entered.Add(1)
			<-release
		}
		c := NewStreamingShardedCollector(shards, DefaultBatchSize, DropNewest(), false, sink)
		batch := make([]Event, 3*shards)
		for i := range batch {
			batch[i] = Event{Seq: uint64(i + 1), Instance: InstanceID(i), Op: OpRead}
		}
		// One batch parks in each stalled drain; two more fill each lane.
		for entered.Load() < int64(shards) {
			c.RecordBatch(batch)
		}
		c.RecordBatch(batch)
		c.RecordBatch(batch)
		allocs := testing.AllocsPerRun(100, func() { c.RecordBatch(batch) })
		close(release)
		c.Close()
		if allocs != 0 {
			t.Errorf("%d shards: RecordBatch allocates %.1f times per call, want 0", shards, allocs)
		}
		if cs := c.Stats(); cs.Dropped == 0 || cs.Delivered()+cs.Dropped != cs.Events {
			t.Errorf("%d shards: dropped %d, delivered %d of %d events", shards, cs.Dropped, cs.Delivered(), cs.Events)
		}
	}
}

// TestRecordBatchOverloadAccounting stalls the drains and overloads the
// batch lanes under the lossy policies: whatever is dropped, every event is
// accounted for exactly, per shard and in total, and events recorded after
// Close count every event of every per-shard batch.
func TestRecordBatchOverloadAccounting(t *testing.T) {
	for _, pol := range []OverloadPolicy{DropNewest(), Sample(4)} {
		t.Run(pol.String(), func(t *testing.T) {
			release := make(chan struct{})
			var mu sync.Mutex
			sunk := make([]int, 2)
			sink := func(shard int, b *ColumnBatch) {
				<-release
				mu.Lock()
				sunk[shard] += b.Len()
				mu.Unlock()
			}
			c := NewStreamingShardedCollector(2, DefaultBatchSize, pol, true, sink)
			const flushes = 50
			done := make(chan struct{})
			go func() {
				defer close(done)
				for f := 0; f < flushes; f++ {
					c.RecordBatch(alternatingBatch(uint64(f*DefaultBatchSize+1), DefaultBatchSize))
				}
			}()
			// Hold the stall until the lanes overflow; DropNewest never
			// blocks, so under it the stall holds for the whole run.
			for c.Stats().Dropped == 0 {
				runtime.Gosched()
			}
			if pol == DropNewest() {
				<-done
			}
			close(release)
			<-done
			c.Close()

			cs := c.Stats()
			if cs.Events != flushes*DefaultBatchSize {
				t.Fatalf("recorded %d events, want %d", cs.Events, flushes*DefaultBatchSize)
			}
			if cs.Delivered()+cs.Dropped != cs.Events {
				t.Fatalf("delivered %d + dropped %d != recorded %d", cs.Delivered(), cs.Dropped, cs.Events)
			}
			for i, cols := range c.ShardColumns() {
				stored := uint64(cols.Len())
				if stored != cs.ShardEvents[i]-cs.ShardDropped[i] || stored != uint64(sunk[i]) {
					t.Fatalf("shard %d: stored %d, sunk %d, recorded %d - dropped %d",
						i, stored, sunk[i], cs.ShardEvents[i], cs.ShardDropped[i])
				}
				if cs.ShardDropped[i]%(DefaultBatchSize/2) != 0 {
					t.Fatalf("shard %d dropped %d events, not whole per-shard batches of %d", i, cs.ShardDropped[i], DefaultBatchSize/2)
				}
			}

			late := alternatingBatch(1<<20, 7)
			c.RecordBatch(late)
			after := c.Stats()
			if after.DroppedAfterClose != uint64(len(late)) || after.Events != cs.Events+uint64(len(late)) {
				t.Fatalf("after Close: %d dropped after close of %d new events, want %d",
					after.DroppedAfterClose, after.Events-cs.Events, len(late))
			}
		})
	}
}

// TestDrainKeepsArrivalOrderAcrossLanes mixes Record and RecordBatch traffic
// on one shard. Whenever the drain hands anything to the sink, everything it
// has taken off either lane so far must already be in the store — a staged
// single event may not be overtaken by a batch that arrived after it. The
// sink parks the drain at each delivery, so the check reads lanes and store
// while neither side moves.
func TestDrainKeepsArrivalOrderAcrossLanes(t *testing.T) {
	entered, proceed := make(chan struct{}), make(chan struct{})
	sink := func(int, *ColumnBatch) {
		entered <- struct{}{}
		<-proceed
	}
	c := NewStreamingShardedCollector(1, 1<<12, Block(), true, sink)
	sh := c.shards[0]
	rng := rand.New(rand.NewSource(1))
	var seq uint64
	sendRound := func() {
		for k := 1 + rng.Intn(6); k > 0; k-- {
			if rng.Intn(2) == 0 {
				seq++
				c.Record(Event{Seq: seq, Instance: 1, Op: OpWrite})
				continue
			}
			batch := make([]Event, 1+rng.Intn(4))
			for i := range batch {
				seq++
				batch[i] = Event{Seq: seq, Instance: 1, Op: OpRead}
			}
			c.RecordBatch(batch)
		}
	}
	const rounds = 300
	sendRound()
	for r, sent := 1, 1; ; r++ {
		<-entered
		queued := int64(len(sh.ch)) + sh.inflight.Load()
		received := int64(sh.count.Load()) - queued
		sh.mu.Lock()
		stored := int64(sh.cols.Len())
		sh.mu.Unlock()
		if stored != received {
			t.Fatalf("delivery %d: store holds %d events but the drain has taken %d off the lanes", r, stored, received)
		}
		// Queue the next round only once the last one is off the lanes, so
		// each round lands in the middle of a parked burst.
		if queued == 0 && sent < rounds {
			sendRound()
			sent++
		}
		proceed <- struct{}{}
		if sent == rounds && stored == int64(seq) {
			break
		}
	}
	go func() {
		for range entered {
			proceed <- struct{}{}
		}
	}()
	c.Close()
	close(entered)
	if got := c.Len(); got != int(seq) {
		t.Fatalf("store holds %d events, want %d", got, seq)
	}
}
