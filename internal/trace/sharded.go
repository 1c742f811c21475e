package trace

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsspy/internal/obs"
)

// ShardedCollector partitions the event stream by InstanceID into N shards,
// each with its own buffer and drain goroutine. Producers touching different
// instances never contend on a shared channel, which removes the
// single-channel bottleneck AsyncCollector has under multi-goroutine
// workloads; all events of one instance land in exactly one shard, so the
// analysis side can fold each shard's columnar store in place without a
// global merge (core.AnalyzeCollector consumes ShardColumns).
//
// Producers call Record; Close flushes every shard and stops the drain
// goroutines. Events merges the shards back into one Seq-ordered stream for
// callers that need the flat post-mortem view (session logs, replay).

// OverloadPolicy decides what happens when a producer finds its shard's
// buffer full. Whatever the choice, every event is accounted for:
// delivered events land in the store, everything else increments the drop
// counters in CollectorStats, so delivered + dropped == recorded always
// holds.
type OverloadPolicy struct {
	kind uint8
	n    uint64
}

const (
	overloadBlock = iota
	overloadDrop
	overloadSample
)

// Block returns the lossless default: a producer hitting a full buffer
// blocks until the drain goroutine catches up, matching the paper's
// requirement that profiles be complete "from initialization to
// deallocation".
func Block() OverloadPolicy { return OverloadPolicy{kind: overloadBlock} }

// DropNewest returns the bounded-latency policy: a producer hitting a full
// buffer drops the event (counted) instead of blocking. Producer block time
// is zero by construction; profiles may have gaps.
func DropNewest() OverloadPolicy { return OverloadPolicy{kind: overloadDrop} }

// Sample returns the degraded-fidelity policy: when the buffer is full, one
// in n overflow events is delivered (blocking for it) and the rest are
// dropped and counted. n <= 1 behaves like Block.
func Sample(n int) OverloadPolicy {
	if n <= 1 {
		return Block()
	}
	return OverloadPolicy{kind: overloadSample, n: uint64(n)}
}

// String renders the policy the way the -overload flag spells it.
func (p OverloadPolicy) String() string {
	switch p.kind {
	case overloadDrop:
		return "drop"
	case overloadSample:
		return fmt.Sprintf("sample:%d", p.n)
	default:
		return "block"
	}
}

// ParseOverloadPolicy parses "block", "drop", or "sample:N".
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	switch {
	case s == "" || s == "block":
		return Block(), nil
	case s == "drop":
		return DropNewest(), nil
	case strings.HasPrefix(s, "sample:"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "sample:"))
		if err != nil || n < 1 {
			return Block(), fmt.Errorf("trace: bad sample rate in overload policy %q", s)
		}
		return Sample(n), nil
	default:
		return Block(), fmt.Errorf("trace: unknown overload policy %q (want block, drop, or sample:N)", s)
	}
}

type ShardedCollector struct {
	shards []*shard
	buf    int
	policy OverloadPolicy

	// tracer (optional, via SetTracer) records one span per drain batch;
	// sampler (optional, via EnableQueueSampling) observes per-shard queue
	// depths into histograms. Both are inert when unset.
	tracer  atomic.Pointer[obs.Tracer]
	sampler *obs.OccupancySampler

	once   sync.Once
	closed atomic.Bool

	// drainHist observes the events each drain burst moves to the
	// store/sink; mergeSplits counts batch runs split at overlap boundaries
	// by the columnar k-way merge. Both feed the dsspy_columnar_* metrics.
	drainHist   *obs.Histogram
	mergeSplits atomic.Uint64

	mergeOnce  sync.Once
	mergedCols *ColumnBatch

	// scatters recycles RecordBatch's per-shard scatter tables, so a
	// steady-state flush allocates nothing whatever the shard count. It is
	// allocated apart from the collector: the runtime keeps every used pool
	// reachable for up to two GC cycles, and an embedded pool would keep the
	// collector — and its channel buffers — alive with it.
	scatters *sync.Pool
}

// scatter is RecordBatch's scratch: by holds the pooled column batch each
// shard touched by the current producer batch is filling (nil for shards
// not touched), and touched lists those shards in first-touch order.
type scatter struct {
	by      []*ColumnBatch
	touched []int
}

// ShardSink consumes column batches from one shard's drain goroutine. Each
// shard has exactly one drain goroutine, so calls for a given shard index are
// serialized (calls for different shards are concurrent). The batch and its
// columns are reused after the call returns — a batch-lane batch is the
// producer's pooled batch, recycled for a later flush; staged per-event
// arrivals come in the drain's own scratch batch — so a sink must fold or
// copy the events, never retain the batch or any of its column slices.
type ShardSink func(shard int, batch *ColumnBatch)

// shardBatchPool recycles the column batches that carry producer batches
// across the shard boundary: RecordBatch scatters the caller's batch into one
// pooled ColumnBatch per shard it touches (the caller reuses its slice
// immediately — this scatter is the one AoS→SoA pivot on the hot path, paid
// once per event on the producer side), and the drain goroutine returns each
// batch once it has moved it into the store and/or the sink.
var shardBatchPool = sync.Pool{New: func() any { return new(ColumnBatch) }}

// shard is one partition: a buffered channel drained by a dedicated
// goroutine into a shard-local store, plus the observability counters the
// pipeline stats report.
type shard struct {
	ch chan Event
	// chb is the batch lane: whole producer batches travel as one channel
	// send, amortizing the per-event send cost by the batch size. Both lanes
	// feed the same drain goroutine, so sink serialization is preserved;
	// ordering *between* the lanes is select order, so a producer that needs
	// a deterministic interleave must stay on one lane (which Producer and
	// Session.Emit each do). Batches travel in columnar form end to end.
	chb chan *ColumnBatch
	// inflight counts the events inside the batches on chb: a producer adds
	// a batch's length before its send, the drain subtracts it on receipt.
	inflight atomic.Int64
	done     chan struct{}

	// id, sink and retain configure the drain destination: with a sink the
	// drain hands each batch to it; with retain the batch also lands in the
	// shard-local store (stream mode sets retain=false so memory stays
	// bounded by reducer state, not event count).
	id     int
	sink   ShardSink
	retain bool

	// tracer points at the collector's tracer slot; the drain goroutine reads
	// it per burst so SetTracer takes effect on a live collector. hist is the
	// collector-wide events-per-drain-burst histogram.
	tracer *atomic.Pointer[obs.Tracer]
	hist   *obs.Histogram

	// closeMu serializes Record against Close: Record holds the read side
	// while it touches the channel, Close takes the write side before
	// closing it. A Record that arrives after Close sees closed == true and
	// counts the event as dropped instead of panicking on a closed channel —
	// instrumented programs must never crash because profiling shut down
	// first.
	closeMu sync.RWMutex
	closed  bool

	// cols is the shard-local store, held columnar: a batch-lane batch is
	// appended here with six column copies and its events are never inflated
	// to Event structs unless a post-mortem consumer asks for them.
	mu   sync.Mutex
	cols ColumnBatch

	count         atomic.Uint64
	dropped       atomic.Uint64
	droppedClosed atomic.Uint64
	overflow      atomic.Uint64
	highWater     atomic.Int64
	blockNS       atomic.Int64
	// columnar counts events that crossed the shard boundary in columnar
	// batches — each is an Event inflation the drain never performed — and
	// batches counts those batches.
	columnar atomic.Uint64
	batches  atomic.Uint64
}

func newShard(id, buf int, sink ShardSink, retain bool, tracer *atomic.Pointer[obs.Tracer], hist *obs.Histogram) *shard {
	sh := &shard{
		ch:     make(chan Event, buf),
		chb:    make(chan *ColumnBatch, max(2, buf/DefaultBatchSize)),
		done:   make(chan struct{}),
		id:     id,
		sink:   sink,
		retain: retain,
		tracer: tracer,
		hist:   hist,
	}
	go sh.drain()
	return sh
}

// queued returns the number of events waiting in both lanes.
func (sh *shard) queued() int64 {
	return int64(len(sh.ch)) + sh.inflight.Load()
}

// markHighWater raises the queue high-water mark to q if it grew.
func (sh *shard) markHighWater(q int64) {
	for {
		cur := sh.highWater.Load()
		if q <= cur || sh.highWater.CompareAndSwap(cur, q) {
			break
		}
	}
}

// record enqueues e, tracking producer block time and the queue high-water
// mark. The fast path is a single non-blocking send attempt; only when the
// buffer is full does the overload policy decide between taking a timestamp
// and blocking, dropping, or sampling.
func (sh *shard) record(e Event, pol OverloadPolicy) {
	sh.closeMu.RLock()
	defer sh.closeMu.RUnlock()
	sh.count.Add(1)
	if sh.closed {
		sh.droppedClosed.Add(1)
		return
	}
	select {
	case sh.ch <- e:
	default:
		switch pol.kind {
		case overloadDrop:
			sh.dropped.Add(1)
			return
		case overloadSample:
			if sh.overflow.Add(1)%pol.n != 0 {
				sh.dropped.Add(1)
				return
			}
			fallthrough
		default:
			start := time.Now()
			sh.ch <- e
			sh.blockNS.Add(int64(time.Since(start)))
		}
	}
	if q := sh.queued(); q > sh.highWater.Load() {
		sh.markHighWater(q)
	}
}

// send enqueues one per-shard column batch on the batch lane and takes
// ownership of bp: the drain recycles it after moving it, and send recycles
// it itself when the batch is not delivered. Accounting matches record
// event for event — delivered + dropped == recorded still holds — with the
// overload policy applied to the batch as a unit (DropNewest drops the whole
// batch, Sample delivers one in n overflowing batches).
func (sh *shard) send(bp *ColumnBatch, pol OverloadPolicy) {
	n := uint64(bp.Len())
	sh.closeMu.RLock()
	defer sh.closeMu.RUnlock()
	sh.count.Add(n)
	if sh.closed {
		sh.droppedClosed.Add(n)
		shardBatchPool.Put(bp)
		return
	}
	sh.inflight.Add(int64(n))
	select {
	case sh.chb <- bp:
	default:
		switch pol.kind {
		case overloadDrop:
			sh.inflight.Add(-int64(n))
			sh.dropped.Add(n)
			shardBatchPool.Put(bp)
			return
		case overloadSample:
			if sh.overflow.Add(1)%pol.n != 0 {
				sh.inflight.Add(-int64(n))
				sh.dropped.Add(n)
				shardBatchPool.Put(bp)
				return
			}
			fallthrough
		default:
			start := time.Now()
			sh.chb <- bp
			sh.blockNS.Add(int64(time.Since(start)))
		}
	}
	if q := sh.queued(); q > sh.highWater.Load() {
		sh.markHighWater(q)
	}
}

// drain moves events from both lanes into the shard-local store and/or the
// sink. Each wakeup handles everything already queued as one burst. A
// batch-lane batch is moved as it is — appended to the store under the
// shard lock and/or handed to the sink, then recycled — so its events stay
// columnar end to end and are copied once. Per-event arrivals from ch are
// staged in the working batch, which is flushed before any batch is moved
// and at the end of the burst, so the store keeps arrival order across the
// lanes. Each burst is one drain span and one drain-size observation.
// Exits when both lanes are closed and empty.
func (sh *shard) drain() {
	ch, chb := sh.ch, sh.chb
	var work ColumnBatch
	for ch != nil || chb != nil {
		// Block for the first arrival on either lane.
		var first *ColumnBatch
		select {
		case e, ok := <-ch:
			if !ok {
				ch = nil
				continue
			}
			work.Append(e)
		case bp, ok := <-chb:
			if !ok {
				chb = nil
				continue
			}
			first = bp
		}
		t := sh.tracer.Load()
		sp := t.Begin("drain", "collector")
		n := 0
		if first != nil {
			n += sh.move(first)
		}
		// Take the rest of the burst without blocking. A lane that closes
		// mid-burst goes nil; with both lanes nil the select hits default.
	burst:
		for {
			select {
			case e, ok := <-ch:
				if !ok {
					ch = nil
					continue
				}
				work.Append(e)
			case bp, ok := <-chb:
				if !ok {
					chb = nil
					continue
				}
				n += sh.flush(&work)
				n += sh.move(bp)
			default:
				break burst
			}
		}
		n += sh.flush(&work)
		sh.hist.ObserveValue(int64(n))
		if t != nil {
			sp.End("shard", strconv.Itoa(sh.id), "events", strconv.Itoa(n))
		}
	}
	close(sh.done)
}

// move delivers one batch-lane batch and recycles it, returning its length.
func (sh *shard) move(bp *ColumnBatch) int {
	n := bp.Len()
	sh.inflight.Add(-int64(n))
	sh.columnar.Add(uint64(n))
	sh.batches.Add(1)
	sh.deliver(bp)
	shardBatchPool.Put(bp)
	return n
}

// flush delivers the staged per-event arrivals, if any, and empties the
// working batch, returning how many it delivered.
func (sh *shard) flush(work *ColumnBatch) int {
	n := work.Len()
	if n > 0 {
		sh.deliver(work)
		work.Reset()
	}
	return n
}

// deliver appends b to the store (unless a sink is the only destination)
// and hands it to the sink, if any.
func (sh *shard) deliver(b *ColumnBatch) {
	if sh.sink == nil || sh.retain {
		sh.mu.Lock()
		sh.cols.AppendRange(b, 0, b.Len())
		sh.mu.Unlock()
	}
	if sh.sink != nil {
		sh.sink(sh.id, b)
	}
}

// snapshot inflates a copy of the store for live readers.
func (sh *shard) snapshot() []Event {
	sh.mu.Lock()
	out := sh.cols.Events(make([]Event, 0, sh.cols.Len()))
	sh.mu.Unlock()
	return out
}

// seal marks the shard closed for producers (late Records count as dropped)
// and closes both lanes so the drain goroutine can finish.
func (sh *shard) seal() {
	sh.closeMu.Lock()
	sh.closed = true
	sh.closeMu.Unlock()
	close(sh.ch)
	close(sh.chb)
}

// NewShardedCollector starts a collector with n shards (0 means GOMAXPROCS)
// and the default per-shard buffer.
func NewShardedCollector(n int) *ShardedCollector {
	return NewShardedCollectorSize(n, DefaultAsyncBuffer)
}

// NewShardedCollectorSize starts a collector with n shards (0 means
// GOMAXPROCS) whose channels each hold up to buf events, using the lossless
// Block overload policy.
func NewShardedCollectorSize(n, buf int) *ShardedCollector {
	return NewShardedCollectorOpts(n, buf, Block())
}

// NewShardedCollectorOpts starts a collector with n shards (0 means
// GOMAXPROCS), per-shard buffers of buf events, and an explicit overload
// policy.
func NewShardedCollectorOpts(n, buf int, policy OverloadPolicy) *ShardedCollector {
	return NewStreamingShardedCollector(n, buf, policy, true, nil)
}

// NewStreamingShardedCollector starts a collector whose drain goroutines hand
// event batches to sink (may be nil). retain controls whether events are also
// kept in the per-shard stores for post-mortem access; a streaming consumer
// passes retain=false so memory stays bounded by its own reducer state. With
// retain=false, Events/ShardColumns hold nothing — the sink is the only
// destination — while the Stats accounting is unchanged.
func NewStreamingShardedCollector(n, buf int, policy OverloadPolicy, retain bool, sink ShardSink) *ShardedCollector {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if buf < 1 {
		buf = 1
	}
	c := &ShardedCollector{shards: make([]*shard, n), buf: buf, policy: policy}
	c.scatters = &sync.Pool{New: func() any { return &scatter{by: make([]*ColumnBatch, n)} }}
	c.drainHist = obs.NewHistogram()
	for i := range c.shards {
		c.shards[i] = newShard(i, buf, sink, retain, &c.tracer, c.drainHist)
	}
	return c
}

// SetTracer attaches a span tracer: every drain batch becomes one "drain"
// span (shard and batch size as args). Safe to call on a live collector;
// nil detaches.
func (c *ShardedCollector) SetTracer(t *obs.Tracer) { c.tracer.Store(t) }

// EnableQueueSampling starts periodic sampling of every shard's queue depth
// into a histogram (interval <= 0 uses obs.DefaultSampleInterval). The
// sampler runs off the hot path — producers never see it — and stops with
// Close. Call before the collector is shared across goroutines; calling it
// twice replaces the sampler and leaks the first, so don't.
func (c *ShardedCollector) EnableQueueSampling(interval time.Duration) {
	probes := make([]obs.Probe, len(c.shards))
	for i, sh := range c.shards {
		sh := sh
		probes[i] = obs.Probe{Name: "shard" + strconv.Itoa(i), Fn: sh.queued}
	}
	c.sampler = obs.StartOccupancySampler(interval, probes...)
}

// Record enqueues the event on the shard owning its instance. Under the
// default Block policy it is lossless: a full shard blocks the producer
// until the drain goroutine catches up. DropNewest and Sample trade
// completeness for bounded producer latency; whatever is not stored is
// counted in Stats().Dropped. Record after Close does not panic — the event
// is counted as dropped (Stats().DroppedAfterClose), mirroring the socket
// recorder's no-crash guarantee.
func (c *ShardedCollector) Record(e Event) {
	c.shards[int(e.Instance)%len(c.shards)].record(e, c.policy)
}

// RecordBatch enqueues a producer batch with one channel send per shard it
// touches. One pass scatters each event into a pooled column batch for its
// shard, keeping producer order within each shard; then each per-shard batch
// is sent once. The caller's slice is not retained. Overload and after-close
// semantics match Record, applied per per-shard batch: the overload unit is
// the events one flush routes to one shard.
func (c *ShardedCollector) RecordBatch(batch []Event) {
	sc := c.scatters.Get().(*scatter)
	n := len(c.shards)
	for k := range batch {
		e := &batch[k]
		s := int(e.Instance) % n
		b := sc.by[s]
		if b == nil {
			b = shardBatchPool.Get().(*ColumnBatch)
			b.Reset()
			sc.by[s] = b
			sc.touched = append(sc.touched, s)
		}
		// Grow inlines to one compare here: a pooled batch has room for a
		// whole producer batch. Six scalar appends then beat a call per event.
		b.Grow(1)
		b.Seq = append(b.Seq, e.Seq)
		b.Instance = append(b.Instance, e.Instance)
		b.Op = append(b.Op, e.Op)
		b.Thread = append(b.Thread, e.Thread)
		b.Index = append(b.Index, e.Index)
		b.Size = append(b.Size, e.Size)
	}
	for _, s := range sc.touched {
		c.shards[s].send(sc.by[s], c.policy)
		sc.by[s] = nil
	}
	sc.touched = sc.touched[:0]
	c.scatters.Put(sc)
}

// Close flushes every shard and stops the drain goroutines. It is
// idempotent. After Close returns, Events holds every delivered event.
func (c *ShardedCollector) Close() {
	c.once.Do(func() {
		for _, sh := range c.shards {
			sh.seal()
		}
		for _, sh := range c.shards {
			<-sh.done
		}
		c.sampler.Stop()
		c.closed.Store(true)
	})
}

// merge builds, once, the Seq-ordered union of all shard stores. Only called
// after Close, when the drain goroutines have stopped; the single-shard case
// sorts the store in place so AsyncCollector pays no merge copy. Each shard
// store arrives near-sorted (producers enqueue in Seq order; only cross-
// producer interleaving perturbs it), so each is cheaply sorted in place and
// the sorted column runs are combined with the span-copying k-way heap merge
// of mergeColumnRuns — six column copies per contiguous span instead of a
// struct move per event, with runs split only at genuine overlap boundaries
// (counted into the dsspy_columnar_merge_splits_total metric).
func (c *ShardedCollector) merge() *ColumnBatch {
	c.mergeOnce.Do(func() {
		if len(c.shards) == 1 {
			c.shards[0].cols.SortBySeq()
			c.mergedCols = &c.shards[0].cols
			return
		}
		runs := make([]*ColumnBatch, 0, len(c.shards))
		for _, sh := range c.shards {
			if sh.cols.Len() == 0 {
				continue
			}
			sh.cols.SortBySeq()
			runs = append(runs, &sh.cols)
		}
		merged, splits := mergeColumnRuns(runs)
		c.mergeSplits.Add(uint64(splits))
		c.mergedCols = merged
	})
	return c.mergedCols
}

// mergeRuns k-way-merges Seq-sorted runs into one sorted slice using a small
// binary min-heap of run heads. With k shards the cost is n·log k
// comparisons on already-sorted inputs, versus n·log n for re-sorting the
// concatenation.
func mergeRuns(runs [][]Event) []Event {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]Event, 0, total)
	switch len(runs) {
	case 0:
		return out
	case 1:
		return append(out, runs[0]...)
	}
	// heap[i] indexes into runs; pos[h] is the cursor of run h. Ordered by
	// the Seq of each run's head element.
	heap := make([]int, len(runs))
	pos := make([]int, len(runs))
	for i := range runs {
		heap[i] = i
	}
	head := func(h int) uint64 { return runs[h][pos[h]].Seq }
	siftDown := func(i, n int) {
		for {
			l := 2*i + 1
			if l >= n {
				return
			}
			m := l
			if r := l + 1; r < n && head(heap[r]) < head(heap[l]) {
				m = r
			}
			if head(heap[i]) <= head(heap[m]) {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	n := len(heap)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	for n > 0 {
		h := heap[0]
		out = append(out, runs[h][pos[h]])
		pos[h]++
		if pos[h] == len(runs[h]) {
			n--
			heap[0] = heap[n]
		}
		siftDown(0, n)
	}
	return out
}

// Events returns the collected events in sequence order, inflated to Event
// structs. After Close the merged columnar order is computed once and cached,
// so each call costs one inflation; on a live collector it returns a sorted
// snapshot of what has been drained so far. Consumers that can fold columns
// should use MergedColumns instead and skip the inflation entirely.
func (c *ShardedCollector) Events() []Event {
	if c.closed.Load() {
		m := c.merge()
		return m.Events(make([]Event, 0, m.Len()))
	}
	var all []Event
	for _, sh := range c.shards {
		all = append(all, sh.snapshot()...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	return all
}

// MergedColumns returns the Seq-ordered union of all shard stores as one
// column batch — the zero-inflation post-mortem view. Only valid after Close
// (nil before); computed once and cached, and possibly aliasing a shard
// store, so treat it as read-only.
func (c *ShardedCollector) MergedColumns() *ColumnBatch {
	if !c.closed.Load() {
		return nil
	}
	return c.merge()
}

// ShardColumns returns the per-shard columnar stores without copying. Only
// valid after Close (nil before). Because events are partitioned by
// instance, analysis can fold these shard-locally without a global merge.
// The stores are read-only except for sorting one by Seq in place, which
// the collector's own merge does too.
func (c *ShardedCollector) ShardColumns() []*ColumnBatch {
	if !c.closed.Load() {
		return nil
	}
	out := make([]*ColumnBatch, len(c.shards))
	for i, sh := range c.shards {
		out[i] = &sh.cols
	}
	return out
}

// NumShards returns the number of shards.
func (c *ShardedCollector) NumShards() int { return len(c.shards) }

// Len returns the number of events drained so far across all shards.
func (c *ShardedCollector) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.cols.Len()
		sh.mu.Unlock()
	}
	return n
}

// Stats reports per-shard queue statistics, cumulative producer block time,
// and the drop accounting: Events - Dropped - DroppedAfterClose is exactly
// the number of events in the store.
func (c *ShardedCollector) Stats() CollectorStats {
	cs := CollectorStats{
		Shards:         len(c.shards),
		Buffer:         c.buf,
		Policy:         c.policy.String(),
		ShardEvents:    make([]uint64, len(c.shards)),
		ShardDropped:   make([]uint64, len(c.shards)),
		ShardHighWater: make([]int, len(c.shards)),
		ShardBlock:     make([]time.Duration, len(c.shards)),

		ShardBatches:     make([]uint64, len(c.shards)),
		ShardBatchEvents: make([]uint64, len(c.shards)),
	}
	for i, sh := range c.shards {
		n := sh.count.Load()
		cs.ShardEvents[i] = n
		cs.Events += n
		d := sh.dropped.Load()
		cs.ShardDropped[i] = d
		cs.Dropped += d
		dc := sh.droppedClosed.Load()
		cs.DroppedAfterClose += dc
		cs.Dropped += dc
		cs.ShardHighWater[i] = int(sh.highWater.Load())
		blk := time.Duration(sh.blockNS.Load())
		cs.ShardBlock[i] = blk
		cs.BlockTime += blk
		cs.ShardBatches[i] = sh.batches.Load()
		cs.ShardBatchEvents[i] = sh.columnar.Load()
	}
	if c.sampler != nil {
		cs.QueueSampleInterval = c.sampler.Interval()
		cs.ShardQueueDepth = make([]obs.HistSnapshot, len(c.shards))
		for i := range c.shards {
			cs.ShardQueueDepth[i] = c.sampler.Hist(i)
		}
	}
	return cs
}

// WriteMetrics exports the collector's counters and, when queue sampling is
// enabled, the per-shard queue-depth histograms in Prometheus exposition.
func (c *ShardedCollector) WriteMetrics(w *obs.PromWriter) {
	for i, sh := range c.shards {
		shard := strconv.Itoa(i)
		w.Counter("dsspy_collector_events_total",
			"Events recorded per shard (delivered + dropped).",
			float64(sh.count.Load()), "shard", shard)
		w.Counter("dsspy_collector_dropped_total",
			"Events not stored: overload + after-close drops.",
			float64(sh.dropped.Load()+sh.droppedClosed.Load()), "shard", shard)
		w.Counter("dsspy_collector_block_seconds_total",
			"Cumulative producer time blocked on a full shard buffer.",
			float64(sh.blockNS.Load())/1e9, "shard", shard)
		w.Counter("dsspy_collector_batches_total",
			"Batches moved off each shard's batch lane: one per shard a delivered producer flush touched.",
			float64(sh.batches.Load()), "shard", shard)
		w.Gauge("dsspy_collector_queue_len",
			"Current shard queue length: events waiting in both lanes.",
			float64(sh.queued()), "shard", shard)
		w.Gauge("dsspy_collector_queue_high_water",
			"Max shard queue length observed, in events.", float64(sh.highWater.Load()), "shard", shard)
	}
	if c.sampler != nil {
		for i := range c.shards {
			w.Histogram("dsspy_collector_queue_depth",
				"Sampled shard queue depth.", c.sampler.Hist(i), 1, "shard", strconv.Itoa(i))
		}
	}
	var avoided uint64
	for _, sh := range c.shards {
		avoided += sh.columnar.Load()
	}
	w.Histogram("dsspy_columnar_drain_batch_events",
		"Events per drain burst moved to the store/sink.",
		c.drainHist.Snapshot(), 1)
	w.Counter("dsspy_columnar_inflations_avoided_total",
		"Events that crossed the shard boundary in columnar batches and were never inflated to Event structs.",
		float64(avoided))
	w.Counter("dsspy_columnar_merge_splits_total",
		"Batch runs split at overlap boundaries by the columnar k-way merge.",
		float64(c.mergeSplits.Load()))
}
