package trace

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dsspy/internal/obs"
)

// Out-of-process collection. DSspy "executes the dynamic analysis module in a
// separate process which receives the runtime information via asynchronous
// intra-process communication" (§IV). SocketRecorder is the producer side: it
// batches events and ships them over a net.Conn. CollectorServer is the
// consumer side: it accepts one or more producer connections and accumulates
// their events for post-mortem analysis. Producer and consumer may live in
// the same process (tests, examples) or different ones (cmd/dsspy -collect /
// -listen).
//
// The server is built to survive the failures long profiling runs actually
// hit: transient Accept errors are retried with backoff (the net/http
// pattern), each connection reads under a deadline so a wedged producer
// cannot pin a goroutine forever, a connection cap bounds memory under
// accept storms, and a producer stream that dies mid-flight keeps every
// event decoded before the error — salvaged, and accounted per connection in
// ServerStats.

// SocketRecorder forwards events over a network connection using the wire
// format. Events are buffered and flushed in batches; Close flushes the tail
// and writes the end-of-stream marker.
//
// The recorder double-buffers behind two locks. The append lock (mu) guards
// the buffer producers append to; the write lock (wmu) guards the stream
// writer and the spare buffer. A producer that fills the buffer takes the
// write lock while still holding the append lock, swaps in the spare, and
// releases the append lock before it encodes and writes, so other producers
// keep appending while the batch is on the wire. Taking the write lock before
// releasing the append lock keeps frames in the order their batches were cut.
// Lock order: mu, then wmu; never the reverse.
type SocketRecorder struct {
	mu       sync.Mutex // append lock
	buf      []Event
	recorded uint64

	wmu   sync.Mutex // write lock
	sw    *StreamWriter
	spare []Event

	// conn and writeTimeout change only under both locks, so either lock
	// suffices to read them.
	conn         net.Conn
	writeTimeout time.Duration

	// err is the sticky transport error. Writers set it and the delivery
	// counters under wmu while appenders read them under mu, so all three
	// are atomics rather than lock-guarded.
	err       atomic.Pointer[error]
	delivered atomic.Uint64
	dropped   atomic.Uint64
}

// DefaultSocketBatch is the number of events buffered before a flush.
const DefaultSocketBatch = 1024

// DialCollector connects to a collector server at addr ("network,address" is
// expressed with the usual net.Dial arguments).
func DialCollector(network, addr string) (*SocketRecorder, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("trace: dialing collector: %w", err)
	}
	return NewSocketRecorder(conn)
}

// NewSocketRecorder wraps an established connection.
func NewSocketRecorder(conn net.Conn) (*SocketRecorder, error) {
	sw, err := NewStreamWriter(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &SocketRecorder{
		sw:    sw,
		conn:  conn,
		buf:   make([]Event, 0, DefaultSocketBatch),
		spare: make([]Event, 0, DefaultSocketBatch),
	}, nil
}

// SetWriteTimeout bounds each flush: a write that cannot complete within d
// fails with a timeout instead of blocking the producer indefinitely behind
// a stalled collector. Zero (the default) means no deadline.
func (s *SocketRecorder) SetWriteTimeout(d time.Duration) {
	s.mu.Lock()
	s.wmu.Lock()
	s.writeTimeout = d
	s.wmu.Unlock()
	s.mu.Unlock()
}

// stickyErr returns the first transport error, or nil.
func (s *SocketRecorder) stickyErr() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

// fail records err as the sticky error unless one is already set.
func (s *SocketRecorder) fail(err error) {
	s.err.CompareAndSwap(nil, &err)
}

// Record buffers the event, flushing a full batch to the connection.
// A transport error is sticky: it is remembered and returned by Close, and
// subsequent events are dropped — counted, never silently lost — so
// instrumented code never crashes because the collector went away.
func (s *SocketRecorder) Record(e Event) {
	s.mu.Lock()
	s.recorded++
	if s.conn == nil || s.err.Load() != nil {
		s.dropped.Add(1)
		s.mu.Unlock()
		return
	}
	s.buf = append(s.buf, e)
	if len(s.buf) < DefaultSocketBatch {
		s.mu.Unlock()
		return
	}
	s.cutAndWrite()
}

// RecordBatch buffers a whole producer batch under one lock acquisition;
// error and accounting semantics match Record.
func (s *SocketRecorder) RecordBatch(batch []Event) {
	s.mu.Lock()
	s.recorded += uint64(len(batch))
	if s.conn == nil || s.err.Load() != nil {
		s.dropped.Add(uint64(len(batch)))
		s.mu.Unlock()
		return
	}
	s.buf = append(s.buf, batch...)
	if len(s.buf) < DefaultSocketBatch {
		s.mu.Unlock()
		return
	}
	s.cutAndWrite()
}

// RecordAggregate ships a flushed lazy-aggregation record as a v3 aggregate
// frame (AggregateRecorder). It rides the same sticky-error contract as
// events, but is advisory: a failed aggregate write is not counted as a
// dropped event, because its accesses were already settled with the gate.
func (s *SocketRecorder) RecordAggregate(rec AggRecord) {
	s.mu.Lock()
	if s.conn == nil || s.err.Load() != nil || rec.N == 0 {
		s.mu.Unlock()
		return
	}
	// Flush buffered events first so frames hit the wire in flush order.
	s.wmu.Lock()
	full := s.cutLocked()
	s.mu.Unlock()
	defer s.wmu.Unlock()
	s.writeCut(full)
	if s.stickyErr() != nil {
		return
	}
	if s.writeTimeout > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		defer s.conn.SetWriteDeadline(time.Time{})
	}
	if err := s.sw.WriteAggregate(rec); err != nil {
		s.fail(err)
		return
	}
	if err := s.sw.Flush(); err != nil {
		s.fail(err)
	}
}

// cutAndWrite ships the full append buffer. The caller holds mu; it is
// released as soon as the batch is cut, and the write runs under wmu alone.
func (s *SocketRecorder) cutAndWrite() {
	s.wmu.Lock()
	full := s.cutLocked()
	s.mu.Unlock()
	s.writeCut(full)
	s.wmu.Unlock()
}

// cutLocked swaps the spare buffer in for the append buffer and returns the
// events cut from it. The caller holds both locks.
func (s *SocketRecorder) cutLocked() []Event {
	full := s.buf
	s.buf, s.spare = s.spare[:0], nil
	return full
}

// writeCut ships a cut batch and returns its buffer as the next spare. The
// caller holds the write lock only.
func (s *SocketRecorder) writeCut(full []Event) {
	if n := len(full); n > 0 {
		if err := s.writeBatchLocked(full); err != nil {
			s.fail(err)
			s.dropped.Add(uint64(n))
		} else {
			s.delivered.Add(uint64(n))
		}
	}
	s.spare = full[:0]
}

// writeBatchLocked ships one batch under the write deadline. It flushes the
// stream writer so a transport failure surfaces on the batch that hit it,
// not batches later. The caller holds the write lock.
func (s *SocketRecorder) writeBatchLocked(events []Event) error {
	if s.writeTimeout > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		defer s.conn.SetWriteDeadline(time.Time{})
	}
	if err := s.sw.WriteBatch(events); err != nil {
		return err
	}
	return s.sw.Flush()
}

// sendBatch writes a batch immediately, bypassing the Record buffer and its
// counters. The resilient recorder uses it as a raw transport primitive and
// does its own accounting.
func (s *SocketRecorder) sendBatch(events []Event) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.stickyErr(); err != nil {
		return err
	}
	if s.conn == nil {
		return errors.New("trace: socket recorder closed")
	}
	if err := s.writeBatchLocked(events); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// abandon tears the connection down without flushing or writing the end
// marker. The resilient recorder calls it when a write fails: the transport
// is untrustworthy, so the remaining events take the spill path instead.
func (s *SocketRecorder) abandon() {
	s.mu.Lock()
	s.wmu.Lock()
	defer s.mu.Unlock()
	defer s.wmu.Unlock()
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.fail(errors.New("trace: socket recorder abandoned"))
}

// SocketStats accounts for every event handed to a socket recorder:
// Recorded == Delivered + Dropped + (events still buffered or being
// written). After Close the buffers are empty and the identity is exact.
type SocketStats struct {
	Recorded  uint64 // events handed to Record
	Delivered uint64 // events written to the connection without error
	Dropped   uint64 // events discarded after a transport error or Close
}

// Stats returns a snapshot of the recorder's delivery accounting.
func (s *SocketRecorder) Stats() SocketStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SocketStats{Recorded: s.recorded, Delivered: s.delivered.Load(), Dropped: s.dropped.Load()}
}

// Close flushes buffered events, writes the end marker, closes the
// connection, and returns the first transport error encountered. It waits
// for a write in flight on another goroutine.
func (s *SocketRecorder) Close() error {
	s.mu.Lock()
	s.wmu.Lock()
	defer s.mu.Unlock()
	defer s.wmu.Unlock()
	return s.closeLocked()
}

// FinishSession flushes buffered events, appends the session's instance
// registry as metadata frames, writes the end marker and closes the
// connection. A collector server receiving this stream can rebuild a replay
// session (CollectorServer.Session) without the producing process.
func (s *SocketRecorder) FinishSession(sess *Session) error {
	s.mu.Lock()
	s.wmu.Lock()
	defer s.mu.Unlock()
	defer s.wmu.Unlock()
	if s.conn == nil {
		return s.stickyErr()
	}
	s.writeCut(s.cutLocked())
	if s.stickyErr() == nil {
		if err := s.sw.WriteInstances(sess.Instances()); err != nil {
			s.fail(err)
		}
	}
	return s.closeLocked()
}

// closeLocked flushes the buffer, ends the stream and closes the connection.
// The caller holds both locks.
func (s *SocketRecorder) closeLocked() error {
	if s.conn == nil {
		return s.stickyErr()
	}
	s.writeCut(s.cutLocked())
	if err := s.sw.Close(); err != nil {
		s.fail(err)
	}
	if err := s.conn.Close(); err != nil {
		s.fail(err)
	}
	s.conn = nil
	return s.stickyErr()
}

// ServerOptions hardens a collector server for long unattended runs.
// The zero value preserves the permissive defaults: no read deadline, no
// connection cap.
type ServerOptions struct {
	// ConnTimeout is the per-frame read deadline on producer connections. A
	// producer that goes silent longer than this has its stream terminated
	// (and salvaged). Zero means no deadline.
	ConnTimeout time.Duration
	// MaxConns caps concurrent producer connections; further connections are
	// closed immediately and counted in ServerStats.Rejected. Zero means
	// unlimited.
	MaxConns int
	// AcceptBackoffMax caps the exponential backoff between retries of a
	// failing Accept. Defaults to 1s.
	AcceptBackoffMax time.Duration
	// Logger receives accept/reject/stream-outcome diagnostics. Nil disables.
	Logger *slog.Logger
	// Tracer records one span per producer connection lifecycle. Nil disables.
	Tracer *obs.Tracer
	// SampleInterval enables periodic sampling of the event-store size and
	// active connection count. Zero disables; negative uses
	// obs.DefaultSampleInterval.
	SampleInterval time.Duration
	// Tenancy turns the server into a multiplexing daemon: streams bind to
	// tenants via the hello frame, per-tenant quotas and deadlines apply, and
	// admitted traffic flows to the tenant sink (or per-tenant stores). Nil
	// keeps the single-run collector behavior unchanged.
	Tenancy *TenancyOptions
}

// ConnStats describes one producer connection's outcome.
type ConnStats struct {
	Remote        string
	Tenant        string // tenant the stream bound to ("" before binding / without tenancy)
	Events        int    // events decoded from this connection
	Instances     int    // registry records received
	SkippedFrames int    // checksum-failed frames skipped mid-stream
	Complete      bool   // end-of-stream marker seen
	TimedOut      bool   // stream ended by the read deadline (salvage still counted above)
	Err           string // terminal error, "" for a clean stream
}

// Salvaged reports whether the connection's events come from a partial
// stream: the producer died, the link broke, or the deadline fired before
// the end marker.
func (c ConnStats) Salvaged() bool { return !c.Complete && c.Events > 0 }

// ServerStats is the observability surface of a collector server: what it
// accepted, what it refused, what it had to retry, and the per-connection
// delivery outcome — including how many events were salvaged from streams
// that never completed.
type ServerStats struct {
	Accepted      int // connections served
	Rejected      int // connections refused by MaxConns
	AcceptRetries int // transient Accept errors survived with backoff
	Conns         []ConnStats

	// StoreDepth and ActiveConns are the sampled event-store size and
	// concurrent-connection distributions, populated when
	// ServerOptions.SampleInterval enabled sampling.
	StoreDepth  obs.HistSnapshot
	ActiveConns obs.HistSnapshot
}

// SalvagedEvents totals events recovered from incomplete producer streams.
func (ss ServerStats) SalvagedEvents() int {
	n := 0
	for _, c := range ss.Conns {
		if c.Salvaged() {
			n += c.Events
		}
	}
	return n
}

// Write renders the stats in the layout `dsspy -stats` prints.
func (ss ServerStats) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Collector server: %d conn(s) accepted, %d rejected, %d accept retries, %d salvaged event(s)\n",
		ss.Accepted, ss.Rejected, ss.AcceptRetries, ss.SalvagedEvents()); err != nil {
		return err
	}
	for i, c := range ss.Conns {
		status := "complete"
		if !c.Complete {
			status = "partial"
		}
		who := c.Remote
		if c.Tenant != "" {
			who += ", tenant " + c.Tenant
		}
		line := fmt.Sprintf("  conn %d (%s): %d event(s), %d instance(s), %s", i, who, c.Events, c.Instances, status)
		if c.TimedOut {
			line += ", timed out"
		}
		if c.SkippedFrames > 0 {
			line += fmt.Sprintf(", %d corrupt frame(s) skipped", c.SkippedFrames)
		}
		if c.Err != "" {
			line += fmt.Sprintf(", error: %s", c.Err)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// CollectorServer accepts producer connections and accumulates their events.
//
// Each connection decodes its event frames straight onto its own columnar
// store, which its serve goroutine alone appends to. After every frame the
// goroutine publishes a length-capped view of the store under mu; readers
// (Events, the store probe) only read those views, and appends land past
// every published length, so decoding never holds mu and a store grows
// without copying anything under it.
type CollectorServer struct {
	ln      net.Listener
	opts    ServerOptions
	log     *slog.Logger
	tracer  *obs.Tracer
	sampler *obs.OccupancySampler
	tenants *tenantTable // non-nil iff opts.Tenancy is set

	mu        sync.Mutex
	cond      *sync.Cond
	stores    []ColumnBatch // published store view per connection, in accept order
	stored    int           // events across stores
	instances map[InstanceID]Instance
	open      map[net.Conn]struct{}
	conns     []*ConnStats
	errs      []error
	accepted  int
	rejected  int
	retries   int
	active    int
	completed int
	closed    bool
	// cutting is set once Abort or Drain tears down the open connections;
	// a connection accepted after that is closed instead of served.
	cutting bool

	wg         sync.WaitGroup
	closing    chan struct{}
	acceptDone chan struct{} // closed when acceptLoop returns
}

// backlogGrace is how long a graceful Close keeps accepting once the
// listener's backlog looks empty. Producers that connected before Close are
// already queued in the backlog, so the grace only bounds the final wait.
const backlogGrace = time.Millisecond

// ListenCollector starts a collector server with default options on the
// given listener address. Use network "tcp" with addr "127.0.0.1:0" for an
// ephemeral port, or "unix" with a socket path.
func ListenCollector(network, addr string) (*CollectorServer, error) {
	return ListenCollectorOpts(network, addr, ServerOptions{})
}

// ListenCollectorOpts starts a collector server with explicit hardening
// options.
func ListenCollectorOpts(network, addr string, opts ServerOptions) (*CollectorServer, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("trace: starting collector: %w", err)
	}
	return NewCollectorServer(ln, opts), nil
}

// NewCollectorServer starts a collector server on an existing listener —
// tests wrap the listener with fault injection, and embedders bring their
// own (pre-bound sockets, TLS).
func NewCollectorServer(ln net.Listener, opts ServerOptions) *CollectorServer {
	if opts.AcceptBackoffMax <= 0 {
		opts.AcceptBackoffMax = time.Second
	}
	cs := &CollectorServer{
		ln:         ln,
		opts:       opts,
		log:        orNoLog(opts.Logger),
		tracer:     opts.Tracer,
		instances:  make(map[InstanceID]Instance),
		open:       make(map[net.Conn]struct{}),
		closing:    make(chan struct{}),
		acceptDone: make(chan struct{}),
	}
	if opts.Tenancy != nil {
		cs.tenants = newTenantTable(opts.Tenancy)
	}
	cs.cond = sync.NewCond(&cs.mu)
	if opts.SampleInterval != 0 {
		cs.sampler = obs.StartOccupancySampler(opts.SampleInterval,
			obs.Probe{Name: "store", Fn: func() int64 {
				cs.mu.Lock()
				n := int64(cs.stored)
				cs.mu.Unlock()
				return n
			}},
			obs.Probe{Name: "conns", Fn: func() int64 {
				cs.mu.Lock()
				n := int64(cs.active)
				cs.mu.Unlock()
				return n
			}})
	}
	cs.wg.Add(1)
	go cs.acceptLoop()
	return cs
}

// Addr returns the address producers should dial.
func (cs *CollectorServer) Addr() net.Addr { return cs.ln.Addr() }

// acceptLoop accepts until the server closes. Transient Accept errors —
// EMFILE bursts, resets on half-open connections — are retried with
// exponential backoff instead of killing the server (the net/http pattern);
// only listener closure, or the backlog deadline of a graceful Close, ends
// the loop.
func (cs *CollectorServer) acceptLoop() {
	defer cs.wg.Done()
	defer close(cs.acceptDone)
	var delay time.Duration
	for {
		conn, err := cs.ln.Accept()
		if err != nil {
			select {
			case <-cs.closing:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				cs.addErr(err)
				return
			}
			if delay == 0 {
				delay = 5 * time.Millisecond
			} else {
				delay *= 2
			}
			if delay > cs.opts.AcceptBackoffMax {
				delay = cs.opts.AcceptBackoffMax
			}
			cs.mu.Lock()
			cs.retries++
			cs.mu.Unlock()
			cs.log.Warn("collector server: accept failed, backing off", "err", err, "delay", delay)
			select {
			case <-cs.closing:
				return
			case <-time.After(delay):
			}
			continue
		}
		delay = 0
		select {
		case <-cs.closing:
			// A graceful Close is taking the backlog: give the next queued
			// connection a fresh grace.
			cs.armBacklog()
		default:
		}

		cs.mu.Lock()
		if cs.cutting {
			// Abort or Drain's cut began between Accept and here: the
			// connection missed their snapshot of open connections, and
			// serving it would leave a stream nobody tears down.
			cs.mu.Unlock()
			conn.Close()
			return
		}
		if cs.opts.MaxConns > 0 && cs.active >= cs.opts.MaxConns {
			cs.rejected++
			cs.mu.Unlock()
			cs.log.Warn("collector server: connection cap reached, rejecting", "remote", remoteString(conn), "max", cs.opts.MaxConns)
			conn.Close()
			continue
		}
		cs.active++
		cs.accepted++
		st := &ConnStats{Remote: remoteString(conn)}
		ord := len(cs.conns)
		cs.conns = append(cs.conns, st)
		cs.stores = append(cs.stores, ColumnBatch{})
		cs.open[conn] = struct{}{}
		cs.mu.Unlock()
		cs.log.Info("collector server: producer connected", "remote", st.Remote)

		cs.wg.Add(1)
		go cs.serve(conn, st, ord)
	}
}

func remoteString(conn net.Conn) string {
	if ra := conn.RemoteAddr(); ra != nil {
		return ra.String()
	}
	return "<unknown>"
}

// serve decodes one producer stream, the ord-th connection accepted. Event
// frames are decoded onto the connection's columnar store and published
// frame by frame, so a stream that dies mid-flight keeps everything decoded
// before the error — the partial prefix is salvaged, not discarded.
// Checksum-failed frames are skipped and counted; structural damage ends the
// stream with its prefix intact. Under tenancy, frames are decoded into
// []Event batches for admission instead.
func (cs *CollectorServer) serve(conn net.Conn, st *ConnStats, ord int) {
	defer cs.wg.Done()
	defer conn.Close()
	defer cs.connDone(conn)
	sp := cs.tracer.Begin("conn", "server")

	tenancy := cs.opts.Tenancy
	var tenant *tenantState
	var timedOut, poisoned bool
	defer func() {
		if tenant != nil {
			tenant.connDone(tenancy.now(), timedOut, poisoned)
		}
		cs.mu.Lock()
		events, complete, errStr := st.Events, st.Complete, st.Err
		cs.mu.Unlock()
		sp.End("remote", st.Remote, "events", fmt.Sprint(events), "complete", fmt.Sprint(complete))
		if errStr != "" {
			cs.log.Warn("collector server: producer stream died, prefix salvaged",
				"remote", st.Remote, "events", events, "err", errStr)
		} else {
			cs.log.Info("collector server: producer stream finished",
				"remote", st.Remote, "events", events, "complete", complete)
		}
	}()

	// A stream that dies is a per-connection outcome, not a server failure:
	// it is recorded in ConnStats (and the prefix salvaged), while Close's
	// error stays reserved for the server's own plumbing. A deadline error is
	// classified on the ConnStats row — the salvage it triggered is visible
	// right there, not only in a log line — and feeds the tenant's poison
	// heuristic; structural damage (ErrBadStream) counts as poison too.
	fail := func(err error) {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			timedOut = true
		}
		if errors.Is(err, ErrBadStream) {
			poisoned = true
		}
		cs.mu.Lock()
		st.Err = err.Error()
		st.TimedOut = timedOut
		cs.mu.Unlock()
	}

	// bind attaches the stream to its tenant on the first hello — or to
	// DefaultTenant if payload arrives with no hello (pre-multiplexing
	// producers) — enforcing the tenant's connection cap and quarantine.
	bind := func(h Hello) error {
		if tenancy == nil || tenant != nil {
			return nil
		}
		t := cs.tenants.get(h.Key())
		if ok, reason := t.admitConn(tenancy.now()); !ok {
			cs.log.Warn("collector server: tenant refused connection",
				"tenant", t.name, "remote", st.Remote, "reason", reason)
			return fmt.Errorf("trace: %s", reason)
		}
		tenant = t
		cs.mu.Lock()
		st.Tenant = t.name
		cs.mu.Unlock()
		return nil
	}

	deadline := func() time.Duration {
		if tenant != nil {
			return tenant.deadline(cs.opts.ConnTimeout)
		}
		return cs.opts.ConnTimeout
	}

	cs.extendDeadline(conn, deadline())
	sr, err := NewStreamReader(conn)
	if err != nil {
		fail(err)
		return
	}
	var store *ColumnBatch
	if tenancy == nil {
		store = new(ColumnBatch)
	}
	sawEnd := false
	for {
		cs.extendDeadline(conn, deadline())
		ent, err := sr.readEntryInto(store)
		switch {
		case err == nil:
		case errors.Is(err, ErrChecksum):
			cs.mu.Lock()
			st.SkippedFrames++
			cs.mu.Unlock()
			continue
		case err == io.EOF && sawEnd:
			return
		default:
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			fail(err)
			return
		}
		switch ent.kind {
		case frameHello:
			cs.mu.Lock()
			st.Tenant = ent.hello.Key()
			cs.mu.Unlock()
			if err := bind(ent.hello); err != nil {
				fail(err)
				return
			}
		case frameEnd:
			// Events first, registry afterwards; keep reading registry
			// frames until the stream truly ends.
			sawEnd = true
			cs.mu.Lock()
			st.Complete = true
			cs.mu.Unlock()
		case frameEvents:
			if tenancy != nil {
				if err := bind(Hello{}); err != nil {
					fail(err)
					return
				}
				cs.mu.Lock()
				st.Events += len(ent.events)
				cs.mu.Unlock()
				kept, wait := tenant.admit(ent.events, tenancy.now())
				if wait > 0 {
					// Producer blocking: the bucket debt is paid in wall time
					// on this connection's goroutine, never a neighbor's.
					tenancy.sleep(wait)
				}
				if len(kept) > 0 {
					if tenancy.Sink != nil {
						tenancy.Sink.TenantEvents(tenant.name, kept)
					} else {
						tenant.store(ord, kept)
					}
				}
				continue
			}
			cs.mu.Lock()
			cs.stores[ord] = store.Slice(0, store.Len())
			cs.stored += ent.n
			st.Events += ent.n
			cs.mu.Unlock()
		case frameInstance:
			if tenancy != nil {
				if err := bind(Hello{}); err != nil {
					fail(err)
					return
				}
				cs.mu.Lock()
				st.Instances++
				cs.mu.Unlock()
				if tenancy.Sink != nil {
					tenancy.Sink.TenantInstance(tenant.name, ent.instance)
				} else {
					tenant.mu.Lock()
					if _, ok := tenant.instances[ent.instance.ID]; !ok {
						tenant.instances[ent.instance.ID] = ent.instance
					}
					tenant.mu.Unlock()
				}
				continue
			}
			cs.mu.Lock()
			if _, ok := cs.instances[ent.instance.ID]; !ok {
				cs.instances[ent.instance.ID] = ent.instance
			}
			st.Instances++
			cs.mu.Unlock()
		case frameAggregate:
			// Advisory lazy-aggregation records: forwarded to sinks that
			// opt in, dropped otherwise (conservation was settled on the
			// producer side, so nothing is lost but bound tightening).
			if tenancy != nil {
				if err := bind(Hello{}); err != nil {
					fail(err)
					return
				}
				if as, ok := tenancy.Sink.(TenantAggregateSink); ok {
					as.TenantAggregate(tenant.name, ent.agg)
				}
			}
		}
	}
}

// extendDeadline pushes the per-frame read deadline forward. The duration is
// resolved per connection: a tenant quota may override the server-wide
// -conn-timeout once the stream has bound to its tenant.
func (cs *CollectorServer) extendDeadline(conn net.Conn, d time.Duration) {
	if d > 0 {
		conn.SetReadDeadline(time.Now().Add(d))
	}
}

// connDone retires one connection and wakes WaitStreams waiters.
func (cs *CollectorServer) connDone(conn net.Conn) {
	cs.mu.Lock()
	delete(cs.open, conn)
	cs.active--
	cs.completed++
	cs.mu.Unlock()
	cs.cond.Broadcast()
}

func (cs *CollectorServer) addErr(err error) {
	cs.mu.Lock()
	cs.errs = append(cs.errs, err)
	cs.mu.Unlock()
}

// WaitStreams blocks until n producer streams have finished (completely or
// partially) or the server is closed. It is how `dsspy -listen` knows the
// producers it was waiting for are done.
func (cs *CollectorServer) WaitStreams(n int) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for cs.completed < n && !cs.closed {
		cs.cond.Wait()
	}
}

// Close stops accepting connections and waits for in-flight producer
// streams to finish (a wedged producer is bounded by ConnTimeout, if set).
// Producers that connected before Close but still wait in the listener's
// backlog are accepted and served too, when the listener supports accept
// deadlines (TCP and Unix listeners do). It returns the first server-level
// error; per-connection stream errors are reported in ServerStats, not here.
func (cs *CollectorServer) Close() error {
	return cs.shutdown(false)
}

// Abort is Close with crash semantics: still-open producer connections are
// torn down instead of drained. Their decoded prefixes are salvaged like any
// other dead stream. Tests use it to model a collector that dies mid-run.
func (cs *CollectorServer) Abort() error {
	return cs.shutdown(true)
}

func (cs *CollectorServer) shutdown(kill bool) error {
	cs.mu.Lock()
	alreadyClosed := cs.closed
	cs.closed = true
	cs.cutting = cs.cutting || kill
	var open []net.Conn
	if kill {
		open = make([]net.Conn, 0, len(cs.open))
		for conn := range cs.open {
			open = append(open, conn)
		}
	}
	cs.mu.Unlock()
	cs.cond.Broadcast()
	if !alreadyClosed {
		close(cs.closing)
	}
	if !kill && cs.armBacklog() {
		// Let the accept loop take the connections still queued in the
		// backlog: they are accepted at once, and the first Accept that
		// finds the backlog empty times out and ends the loop.
		<-cs.acceptDone
	}
	cs.ln.Close()
	for _, conn := range open {
		conn.Close()
	}
	cs.wg.Wait()
	cs.sampler.Stop()
	return cs.firstErr()
}

// armBacklog sets the listener's accept deadline backlogGrace from now and
// reports whether the listener took it; listeners without deadlines close at
// once on Close, backlog or not.
func (cs *CollectorServer) armBacklog() bool {
	dl, ok := cs.ln.(interface{ SetDeadline(time.Time) error })
	return ok && dl.SetDeadline(time.Now().Add(backlogGrace)) == nil
}

// Drain is the SIGTERM path: stop accepting, give in-flight producer streams
// up to timeout to finish on their own, then tear down whatever is left. The
// decoded prefix of every torn-down stream is salvaged like any other dead
// stream, so a drain never discards events already on the wire. It returns
// the number of connections that had to be cut.
func (cs *CollectorServer) Drain(timeout time.Duration) (cut int, err error) {
	cs.mu.Lock()
	alreadyClosed := cs.closed
	cs.closed = true
	cs.mu.Unlock()
	cs.cond.Broadcast()
	if !alreadyClosed {
		close(cs.closing)
	}
	if cs.armBacklog() {
		// Producers already dialed in sit in the accept backlog; take them
		// as Close does, so their streams get the drain window too.
		<-cs.acceptDone
	}
	cs.ln.Close()

	// Bounded wait for a voluntary finish. sync.Cond has no timed wait, so
	// the drain polls; 2ms granularity is noise against drain timeouts
	// measured in seconds.
	deadline := time.Now().Add(timeout)
	for {
		cs.mu.Lock()
		active := cs.active
		cs.mu.Unlock()
		if active == 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	cs.mu.Lock()
	cs.cutting = true
	open := make([]net.Conn, 0, len(cs.open))
	for conn := range cs.open {
		open = append(open, conn)
	}
	cs.mu.Unlock()
	for _, conn := range open {
		conn.Close()
	}
	cs.wg.Wait()
	cs.sampler.Stop()
	if len(open) > 0 {
		cs.log.Warn("collector server: drain timeout, connections cut", "cut", len(open))
	}
	return len(open), cs.firstErr()
}

func (cs *CollectorServer) firstErr() error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, err := range cs.errs {
		if !errors.Is(err, net.ErrClosed) {
			return err
		}
	}
	return nil
}

// Events returns all events received so far, ordered by sequence number.
// Events salvaged from partial streams are included; ServerStats tells them
// apart per connection. Events with equal sequence numbers — two producer
// processes each numbering from 1 — are ordered by the accept order of their
// connections, then by arrival order within a connection, so the result is
// the same on every call and on every server fed the same streams.
func (cs *CollectorServer) Events() []Event {
	cs.mu.Lock()
	runs := slices.Clone(cs.stores)
	cs.mu.Unlock()
	return orderBySeq(runs)
}

// orderBySeq inflates the runs into one exact-size slice ordered by Seq.
// When the Seqs form a dense, duplicate-free range — one session's events,
// with or without a sampling gate — every event is placed at out[seq-min] in
// a single pass. Otherwise the runs are concatenated in order and stably
// sorted, so equal Seqs keep run order, then their order within the run.
func orderBySeq(runs []ColumnBatch) []Event {
	n := 0
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range runs {
		n += runs[i].Len()
		for _, s := range runs[i].Seq {
			lo, hi = min(lo, s), max(hi, s)
		}
	}
	out := make([]Event, n)
	if n == 0 || hi-lo == uint64(n-1) && placeDense(out, runs, lo) {
		return out
	}
	k := 0
	for i := range runs {
		k = len(runs[i].AppendTo(out[:k], 0, runs[i].Len()))
	}
	bySeq := func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) }
	if !slices.IsSortedFunc(out, bySeq) {
		slices.SortStableFunc(out, bySeq)
	}
	return out
}

// placeDense writes each event of the runs to out[seq-lo], where out spans
// exactly the Seq range. It reports false on the first duplicate Seq; with
// as many events as slots and no duplicate, every slot is filled once.
func placeDense(out []Event, runs []ColumnBatch, lo uint64) bool {
	seen := make([]uint64, (len(out)+63)/64)
	for i := range runs {
		r := &runs[i]
		seq := r.Seq
		inst, op, thr := r.Instance[:len(seq)], r.Op[:len(seq)], r.Thread[:len(seq)]
		idx, size := r.Index[:len(seq)], r.Size[:len(seq)]
		for j, s := range seq {
			k := s - lo
			w, bit := k>>6, uint64(1)<<(k&63)
			if seen[w]&bit != 0 {
				return false
			}
			seen[w] |= bit
			out[k] = Event{Seq: s, Instance: inst[j], Op: op[j], Thread: thr[j], Index: idx[j], Size: size[j]}
		}
	}
	return true
}

// Session rebuilds a replay session from the registry frames producers sent
// with FinishSession. Instances the registry never named (their frames were
// lost with a partial stream) appear as placeholders, so analysis can still
// bucket their events. A record whose id lies implausibly far past the rest
// of the registry, in practice a corrupt id, is left out (see
// Session.RestoreInstance).
func (cs *CollectorServer) Session() *Session {
	s := NewSessionWith(Options{Recorder: NullRecorder{}})
	cs.mu.Lock()
	ids := make([]InstanceID, 0, len(cs.instances))
	for id := range cs.instances {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	instances := make([]Instance, len(ids))
	for i, id := range ids {
		instances[i] = cs.instances[id]
	}
	cs.mu.Unlock()
	for _, inst := range instances {
		s.restoreInstance(inst)
	}
	return s
}

// TenantStats returns per-tenant admission snapshots, sorted by tenant name.
// Nil without TenancyOptions.
func (cs *CollectorServer) TenantStats() []TenantStats {
	if cs.tenants == nil {
		return nil
	}
	now := cs.opts.Tenancy.now()
	states := cs.tenants.all()
	out := make([]TenantStats, len(states))
	for i, t := range states {
		out[i] = t.stats(now)
	}
	return out
}

// TenantEvents returns one tenant's retained events ordered by sequence
// number (store mode only — with a sink the server retains nothing). Ties
// resolve as in Events: connection accept order, then arrival order.
func (cs *CollectorServer) TenantEvents(name string) []Event {
	if cs.tenants == nil {
		return nil
	}
	return cs.tenants.get(name).storedEvents()
}

// TenantSession rebuilds a replay session from one tenant's registry frames
// (store mode only), mirroring Session for the single-run collector.
func (cs *CollectorServer) TenantSession(name string) *Session {
	if cs.tenants == nil {
		return nil
	}
	t := cs.tenants.get(name)
	s := NewSessionWith(Options{Recorder: NullRecorder{}})
	t.mu.Lock()
	ids := make([]InstanceID, 0, len(t.instances))
	for id := range t.instances {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	instances := make([]Instance, len(ids))
	for i, id := range ids {
		instances[i] = t.instances[id]
	}
	t.mu.Unlock()
	for _, inst := range instances {
		s.restoreInstance(inst)
	}
	return s
}

// ServerStats returns a snapshot of the server's accept/reject/retry
// counters and per-connection outcomes.
func (cs *CollectorServer) ServerStats() ServerStats {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	ss := ServerStats{
		Accepted:      cs.accepted,
		Rejected:      cs.rejected,
		AcceptRetries: cs.retries,
		Conns:         make([]ConnStats, len(cs.conns)),
	}
	for i, c := range cs.conns {
		ss.Conns[i] = *c
	}
	if cs.sampler != nil {
		ss.StoreDepth = cs.sampler.Hist(0)
		ss.ActiveConns = cs.sampler.Hist(1)
	}
	return ss
}

// WriteMetrics exports the server's accept/connection/store counters in
// Prometheus exposition.
func (cs *CollectorServer) WriteMetrics(w *obs.PromWriter) {
	cs.mu.Lock()
	accepted, rejected, retries := cs.accepted, cs.rejected, cs.retries
	active, stored := cs.active, cs.stored
	cs.mu.Unlock()
	w.Counter("dsspy_server_conns_accepted_total", "Producer connections served.", float64(accepted))
	w.Counter("dsspy_server_conns_rejected_total", "Connections refused by the connection cap.", float64(rejected))
	w.Counter("dsspy_server_accept_retries_total", "Transient accept errors survived with backoff.", float64(retries))
	w.Gauge("dsspy_server_conns_active", "Producer connections currently open.", float64(active))
	w.Gauge("dsspy_server_events_stored", "Events accumulated in the store.", float64(stored))
	if cs.sampler != nil {
		w.Histogram("dsspy_server_store_depth", "Sampled event-store size.", cs.sampler.Hist(0), 1)
		w.Histogram("dsspy_server_conns_sampled", "Sampled concurrent producer connections.", cs.sampler.Hist(1), 1)
	}
	if cs.tenants != nil {
		cs.tenants.writeMetrics(w)
	}
}
