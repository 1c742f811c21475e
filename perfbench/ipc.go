package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dsspy/internal/core"
	"dsspy/internal/obs"
	"dsspy/internal/trace"
)

const (
	// ipcProducers stays at 2 so the producers plus the collector server
	// never ask for more than the 2 cores the benchmark is sized for.
	ipcProducers = 2
	// ipcEventsPerProducer sizes a round at about one million events.
	ipcEventsPerProducer = 500_000
)

// phase is one step of a producer's script: an insert-back run into its own
// list, forward read sweeps over it, a hand-off of items through the shared
// queue, and a clear.
type phase struct {
	inserts, sweeps, handoff int
}

// ipcWorkload is a two-goroutine program instrumented through unbound
// per-event Session.Emit, shipping over one loopback SocketRecorder to a
// CollectorServer, analyzed the way `dsspy -listen` does (Events, then the
// batch Analyze).
type ipcWorkload struct {
	scripts  [ipcProducers][]phase
	events   int // emitted per round across producers
	analyzer *core.DSspy
	want     map[trace.InstanceID]string // single-goroutine reference verdicts
}

func newIPCWorkload(seed int64) *ipcWorkload {
	w := &ipcWorkload{analyzer: core.NewWith(core.DefaultConfig())}
	rng := rand.New(rand.NewSource(seed))
	for g := range w.scripts {
		n := 0
		for n < ipcEventsPerProducer {
			ph := phase{
				inserts: 256 + rng.Intn(1793),
				sweeps:  1 + rng.Intn(3),
				handoff: 1 + rng.Intn(8),
			}
			w.scripts[g] = append(w.scripts[g], ph)
			n += ph.events()
		}
		w.events += n
	}
	return w
}

func (ph phase) events() int { return ph.inserts*(1+ph.sweeps) + 2*ph.handoff + 1 }

// handoffQueue is the queue instance both producers share.
type handoffQueue struct {
	mu    sync.Mutex
	items []int
}

// ids are the instances every session of this workload registers, in
// registration order, so instance ids agree across sessions.
type ipcIDs struct {
	lists [ipcProducers]trace.InstanceID
	queue trace.InstanceID
}

func register(s *trace.Session) ipcIDs {
	var ids ipcIDs
	for g := range ids.lists {
		ids.lists[g] = s.Register(trace.KindList, "List[int]", fmt.Sprintf("producer-%d", g), 0)
	}
	ids.queue = s.Register(trace.KindQueue, "Queue[int]", "hand-off", 0)
	return ids
}

// produce runs one producer's script, emitting every access when s is
// non-nil; with s nil it is the plain twin doing the same work.
func produce(s *trace.Session, list, queue trace.InstanceID, q *handoffQueue, script []phase) int {
	var items []int
	sum := 0
	for _, ph := range script {
		for i := 0; i < ph.inserts; i++ {
			items = append(items, i)
			if s != nil {
				s.Emit(list, trace.OpInsert, len(items)-1, len(items))
			}
		}
		for k := 0; k < ph.sweeps; k++ {
			for i := range items {
				sum += items[i]
				if s != nil {
					s.Emit(list, trace.OpRead, i, len(items))
				}
			}
		}
		// Each push and pop run holds the lock throughout, so a producer
		// always finds at least its own items to pop.
		q.mu.Lock()
		for k := 0; k < ph.handoff; k++ {
			q.items = append(q.items, sum)
			if s != nil {
				s.Emit(queue, trace.OpInsert, len(q.items)-1, len(q.items))
			}
		}
		q.mu.Unlock()
		q.mu.Lock()
		for k := 0; k < ph.handoff; k++ {
			sum ^= q.items[0]
			q.items = q.items[1:]
			if s != nil {
				s.Emit(queue, trace.OpDelete, 0, len(q.items))
			}
		}
		q.mu.Unlock()
		items = items[:0]
		if s != nil {
			s.Emit(list, trace.OpClear, trace.NoIndex, 0)
		}
	}
	return sum
}

var sink atomic.Int64

// runProducers runs every script on its own goroutine (with s nil, the
// plain twin) and returns the wall time from the first start to the last
// finish. Each producer is one span under parent.
func (w *ipcWorkload) runProducers(s *trace.Session, ids ipcIDs, t *tracer, round, parent int) time.Duration {
	var q handoffQueue
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := range w.scripts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gs := time.Now()
			sink.Add(int64(produce(s, ids.lists[g], ids.queue, &q, w.scripts[g])))
			t.add(round, parent, "producer", gs, time.Now())
		}(g)
	}
	wg.Wait()
	return time.Since(t0)
}

// setup computes the single-goroutine reference from the same scripts: each
// producer's list must get the same verdict when the scripts run
// concurrently, and then warms the round's code paths.
func (w *ipcWorkload) setup() error {
	s := trace.NewSessionWith(trace.Options{CaptureSites: true})
	ids := register(s)
	var q handoffQueue
	for g := range w.scripts {
		sink.Add(int64(produce(s, ids.lists[g], ids.queue, &q, w.scripts[g])))
	}
	rep := w.analyzer.Analyze(s, s.Recorder().(*trace.MemRecorder).Events())
	w.want = map[trace.InstanceID]string{}
	for _, ir := range rep.Instances {
		for _, id := range ids.lists {
			if ir.Profile.Instance.ID == id {
				w.want[id] = verdict(ir)
			}
		}
	}
	if len(w.want) != len(ids.lists) {
		return fmt.Errorf("ipc-2p reference: %d of %d producer lists analyzed", len(w.want), len(ids.lists))
	}
	r := &round{id: -1}
	w.run(r, nil)
	return r.err
}

// meteredConn counts the bytes the socket recorder writes and times each
// write (one per flushed batch).
type meteredConn struct {
	net.Conn
	bytes  int64
	writes obs.Histogram
}

func (c *meteredConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.writes.Observe(time.Since(t0))
	c.bytes += int64(n) // the socket recorder writes under its own lock
	return n, err
}

func (w *ipcWorkload) run(r *round, t *tracer) {
	rs := t.open(r.id, -1, "round")
	u := unit{name: "ipc-2p"}
	if r.id%2 == 0 {
		u.twin = w.twin(r, t, rs)
	}
	w.profiled(r, t, rs, &u)
	if r.id%2 != 0 {
		u.twin = w.twin(r, t, rs)
	}
	t.close(rs)
	r.units = append(r.units, u)
}

func (w *ipcWorkload) twin(r *round, t *tracer, parent int) time.Duration {
	runtime.GC()
	t0 := time.Now()
	d := w.runProducers(nil, ipcIDs{}, nil, r.id, parent)
	t.add(r.id, parent, "twin", t0, t0.Add(d))
	return d
}

func (w *ipcWorkload) profiled(r *round, t *tracer, parent int, u *unit) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.fail("ipc-2p: listen: %v", err)
		return
	}
	cs := trace.NewCollectorServer(ln, trace.ServerOptions{})
	conn, err := net.Dial("tcp", cs.Addr().String())
	if err != nil {
		cs.Close()
		r.fail("ipc-2p: dial: %v", err)
		return
	}
	var mc *meteredConn
	if r.traced {
		mc = &meteredConn{Conn: conn}
		mc.writes.Init()
		conn = mc
	}
	sock, err := trace.NewSocketRecorder(conn)
	if err != nil {
		cs.Close()
		r.fail("ipc-2p: socket recorder: %v", err)
		return
	}
	var rec trace.Recorder = sock
	var timed *trace.TimedRecorder
	if r.traced {
		timed = trace.NewTimedRecorder(sock, 0)
		rec = timed
	}
	s := trace.NewSessionWith(trace.Options{Recorder: rec, CaptureSites: true})
	ids := register(s)

	runtime.GC()
	t0 := time.Now()
	ps := t.open(r.id, parent, "producers")
	w.runProducers(s, ids, t, r.id, ps)
	t.close(ps)
	t1 := time.Now()
	ferr := sock.FinishSession(s)
	t2 := time.Now()
	cs.WaitStreams(1)
	t3 := time.Now()
	cerr := cs.Close()
	t4 := time.Now()
	evs := cs.Events()
	rep := w.analyzer.Analyze(cs.Session(), evs)
	t5 := time.Now()
	u.profiled, u.report = t1.Sub(t0), t5.Sub(t0)
	t.add(r.id, parent, "finish_session", t1, t2)
	t.add(r.id, parent, "server_drain", t2, t3)
	t.add(r.id, parent, "server_close", t3, t4)
	t.add(r.id, parent, "analyze", t4, t5)

	w.check(r, rep, evs, sock, cs, ferr, cerr)
	if !r.traced {
		return
	}
	h := timed.Hist()
	ss := cs.ServerStats()
	wh := mc.writes.Snapshot()
	// A sampled Record call is typically tens of nanoseconds, but the rare
	// call that waits out a descheduled lock holder takes milliseconds and
	// would dominate a mean; the median is the steady per-event cost, and
	// the time spent writing to the connection is accounted separately.
	u.block = time.Duration(wh.Sum)
	u.flush = time.Duration(h.Quantile(0.5)*float64(w.events)) + u.block
	u.close, u.analyze = t4.Sub(t1), t5.Sub(t4)
	r.layer = map[string]float64{
		"trace.socket_record_ns":     h.Quantile(0.5),
		"trace.wire_bytes_per_event": float64(mc.bytes) / float64(w.events),
		"trace.server_drain_ms":      ms(t3.Sub(t2)),
		"trace.salvaged":             float64(ss.SalvagedEvents()),
		"trace.dropped":              float64(sock.Stats().Dropped),
		"core.analyze_ms":            ms(u.analyze),
	}
	for _, st := range rep.Stats.Stages {
		for _, sm := range stageMetrics {
			if sm.stage == st.Name {
				r.layer[sm.metric] = ms(st.P50 * time.Duration(st.Count))
			}
		}
	}
}

// check is the ipc-2p oracle: nothing lost on the wire, the stream ended
// cleanly, and each producer's list got its single-goroutine verdict.
func (w *ipcWorkload) check(r *round, rep *core.Report, evs []trace.Event, sock *trace.SocketRecorder, cs *trace.CollectorServer, errs ...error) {
	for _, err := range errs {
		if err != nil {
			r.fail("ipc-2p: %v", err)
		}
	}
	if len(evs) != w.events {
		r.fail("ipc-2p: server received %d events, producers emitted %d", len(evs), w.events)
	}
	if st := sock.Stats(); st.Dropped != 0 || st.Delivered != uint64(w.events) {
		r.fail("ipc-2p: socket recorder delivered %d and dropped %d of %d events", st.Delivered, st.Dropped, w.events)
	}
	ss := cs.ServerStats()
	if len(ss.Conns) != 1 || !ss.Conns[0].Complete {
		r.fail("ipc-2p: producer stream not complete: %+v", ss.Conns)
	}
	seen := 0
	for _, ir := range rep.Instances {
		want, ok := w.want[ir.Profile.Instance.ID]
		if !ok {
			continue
		}
		seen++
		if got := verdict(ir); got != want {
			r.fail("ipc-2p: instance %d verdict %s, single-goroutine reference %s", ir.Profile.Instance.ID, got, want)
		}
	}
	if seen != len(w.want) {
		r.fail("ipc-2p: %d of %d producer lists in the report", seen, len(w.want))
	}
}
