package trace

import (
	"time"

	"dsspy/internal/obs"
)

// AsyncCollector is the paper's collector design (§IV): producers hand events
// over asynchronous communication to a separate consumer that owns the event
// store, so the instrumented program is never blocked on analysis or I/O.
// In Go the "separate process with asynchronous intra-process communication"
// maps naturally onto a buffered channel drained by a dedicated goroutine;
// for a true separate process see the socket collector in ipc.go.
//
// AsyncCollector is the single-shard case of ShardedCollector behind the
// shared Collector interface: one buffer, one drain goroutine, one store.
// Producers call Record; the drain goroutine appends to the store. Close
// flushes the channel, stops the goroutine and seals the event order; Events
// is only valid after Close (post-mortem analysis, exactly as in the paper).
type AsyncCollector struct {
	sc *ShardedCollector
}

// DefaultAsyncBuffer is the channel capacity used by NewAsyncCollector.
// Large enough that bursts (tight instrumented loops) rarely block the
// producer, small enough not to dominate memory.
const DefaultAsyncBuffer = 1 << 16

// NewAsyncCollector starts a collector with the default buffer size.
func NewAsyncCollector() *AsyncCollector { return NewAsyncCollectorSize(DefaultAsyncBuffer) }

// NewAsyncCollectorSize starts a collector whose channel holds up to buf
// events. buf must be at least 1.
func NewAsyncCollectorSize(buf int) *AsyncCollector {
	return NewAsyncCollectorOpts(buf, Block())
}

// NewAsyncCollectorOpts starts a collector with an explicit buffer size and
// overload policy.
func NewAsyncCollectorOpts(buf int, policy OverloadPolicy) *AsyncCollector {
	return &AsyncCollector{sc: NewShardedCollectorOpts(1, buf, policy)}
}

// Record enqueues the event for the drain goroutine. Under the default Block
// policy a full buffer blocks the producer until the collector catches up —
// the collector is lossless, matching the paper's requirement that profiles
// be complete "from initialization to deallocation". DropNewest and Sample
// trade completeness for bounded producer latency, with every undelivered
// event counted in Stats().Dropped. Record after Close does not panic; the
// event is counted as dropped.
func (c *AsyncCollector) Record(e Event) {
	c.sc.shards[0].record(e, c.sc.policy)
}

// RecordBatch enqueues a whole producer batch as one channel send on the
// single shard's batch lane — the one-shard case of
// ShardedCollector.RecordBatch; semantics otherwise match Record.
func (c *AsyncCollector) RecordBatch(batch []Event) {
	c.sc.RecordBatch(batch)
}

// Close flushes buffered events, stops the drain goroutine and sorts the
// store into sequence order once. It is idempotent. After Close returns,
// Events holds every recorded event and each call costs one copy.
func (c *AsyncCollector) Close() {
	c.sc.Close()
	c.sc.merge()
}

// Events returns the collected events in sequence order. After Close this is
// a copy of the order sealed by Close; on a live collector it returns a
// sorted snapshot of what has been drained so far.
func (c *AsyncCollector) Events() []Event {
	return c.sc.Events()
}

// MergedColumns returns the sealed store as one Seq-ordered column batch —
// the zero-inflation post-mortem view. Only valid after Close (nil before);
// read-only.
func (c *AsyncCollector) MergedColumns() *ColumnBatch { return c.sc.MergedColumns() }

// Len returns the number of events drained so far.
func (c *AsyncCollector) Len() int { return c.sc.Len() }

// Stats reports the single shard's queue statistics and producer block time.
func (c *AsyncCollector) Stats() CollectorStats { return c.sc.Stats() }

// SetTracer forwards the pipeline self-tracer to the underlying shard.
func (c *AsyncCollector) SetTracer(t *obs.Tracer) { c.sc.SetTracer(t) }

// EnableQueueSampling starts periodic queue-depth sampling on the single
// shard; interval <= 0 uses obs.DefaultSampleInterval.
func (c *AsyncCollector) EnableQueueSampling(interval time.Duration) {
	c.sc.EnableQueueSampling(interval)
}

// WriteMetrics exports the shard's counters for the /metrics endpoint.
func (c *AsyncCollector) WriteMetrics(w *obs.PromWriter) { c.sc.WriteMetrics(w) }
