package trace

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"dsspy/internal/faultnet"
)

// stableReference is the ordering Events promises, computed the slow,
// obvious way: concatenate the runs in order, then stable-sort by Seq.
func stableReference(runs [][]Event) []Event {
	var all []Event
	for _, r := range runs {
		all = append(all, r...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	if all == nil {
		all = []Event{}
	}
	return all
}

// TestOrderBySeq covers both orderings: dense placement (one session, with
// or without gaps a gate would leave before numbering) and the stable
// fallback (sparse ranges, overlapping ranges, and duplicates that make a
// range look dense).
func TestOrderBySeq(t *testing.T) {
	seqs := func(vals ...uint64) []Event {
		out := make([]Event, len(vals))
		for i, s := range vals {
			out[i] = Event{Seq: s, Instance: InstanceID(i%3 + 1), Index: i}
		}
		return out
	}
	shuffled := testEvents(5000)
	for i := 0; i+7 < len(shuffled); i += 7 {
		shuffled[i], shuffled[i+7] = shuffled[i+7], shuffled[i]
	}
	cases := []struct {
		name string
		runs [][]Event
	}{
		{"empty", nil},
		{"dense one run", [][]Event{shuffled}},
		{"dense split", [][]Event{shuffled[:1234], shuffled[1234:]}},
		{"dense offset", [][]Event{seqs(103, 101, 102, 104)}},
		{"sparse", [][]Event{seqs(9, 1, 5), seqs(7, 3)}},
		{"overlapping ranges", [][]Event{seqs(1, 2, 3, 4), seqs(3, 4, 5, 6)}},
		{"duplicate looks dense", [][]Event{seqs(1, 2, 2, 4), seqs(5, 3)[:1]}},
		{"ties within a run", [][]Event{seqs(2, 1, 2, 1, 2)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runs := make([]ColumnBatch, len(c.runs))
			for i, r := range c.runs {
				runs[i].AppendEvents(r)
			}
			got := orderBySeq(runs)
			if want := stableReference(c.runs); !reflect.DeepEqual(got, want) {
				t.Fatalf("orderBySeq:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// overlappingStreams serves two producer streams that both number their
// events from 1, as two producer processes do, one connection after the
// other so accept order is fixed, and returns the server's Events.
func overlappingStreams(t *testing.T) []Event {
	t.Helper()
	cs, err := ListenCollector("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		rec, err := DialCollector("tcp", cs.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			// The second producer repeats some of its Seqs, so ties occur
			// within a connection as well as across the two.
			seq := uint64(i + 1)
			if p == 1 {
				seq = uint64(i/2 + 1000)
			}
			rec.Record(Event{Seq: seq, Instance: InstanceID(p + 1), Op: OpRead, Index: i, Size: 3000})
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		cs.WaitStreams(p + 1)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	return cs.Events()
}

// TestCollectorServerEventsStableOnSeqTies: events with equal Seqs resolve
// by connection accept order, then arrival order, the same way on every
// call and on every fresh server fed the same streams.
func TestCollectorServerEventsStableOnSeqTies(t *testing.T) {
	first := overlappingStreams(t)
	if len(first) != 6000 {
		t.Fatalf("received %d events, want 6000", len(first))
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.Seq > b.Seq {
			t.Fatalf("events %d,%d out of Seq order: %v %v", i-1, i, a, b)
		}
		if a.Seq == b.Seq && (a.Instance > b.Instance || a.Instance == b.Instance && a.Index > b.Index) {
			t.Fatalf("tie at Seq %d not in accept-then-arrival order: %v before %v", a.Seq, a, b)
		}
	}
	for round := 0; round < 3; round++ {
		if got := overlappingStreams(t); !reflect.DeepEqual(got, first) {
			t.Fatalf("fresh server %d ordered the same streams differently", round)
		}
	}
}

// TestTenantEventsStableOnSeqTies is the daemon-mode twin: two connections
// of one tenant with overlapping Seq ranges.
func TestTenantEventsStableOnSeqTies(t *testing.T) {
	run := func() []Event {
		cs, err := ListenCollectorOpts("tcp", "127.0.0.1:0", ServerOptions{Tenancy: &TenancyOptions{}})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 2; p++ {
			rec, err := DialCollectorHello("tcp", cs.Addr().String(), Hello{Tenant: "alpha"})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				rec.Record(Event{Seq: uint64(i + 1), Instance: InstanceID(p + 1), Index: i})
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			cs.WaitStreams(p + 1)
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
		return cs.TenantEvents("alpha")
	}
	first := run()
	if len(first) != 4000 {
		t.Fatalf("tenant kept %d events, want 4000", len(first))
	}
	for i := 0; i < len(first); i += 2 {
		if first[i].Instance != 1 || first[i+1].Instance != 2 || first[i].Seq != first[i+1].Seq {
			t.Fatalf("tie at %d not in accept order: %v then %v", i, first[i], first[i+1])
		}
	}
	if again := run(); !reflect.DeepEqual(again, first) {
		t.Fatal("a fresh daemon ordered the same tenant streams differently")
	}
}

// TestSocketRecorderConcurrentFault hammers one socket recorder from several
// goroutines, mixing Record and RecordBatch, while the link dies mid-run.
// Every event must be accounted exactly once, and the server must decode
// exactly the delivered events with each producer's events in the order it
// recorded them — which holds only if frames go out in the order their
// batches were cut.
func TestSocketRecorderConcurrentFault(t *testing.T) {
	cs, err := ListenCollector("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", cs.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewSocketRecorder(faultnet.Wrap(raw, faultnet.Options{FailAfterBytes: 60_000}))
	if err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 6, 20_000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			id := InstanceID(p + 1)
			batch := make([]Event, 0, 37)
			for i := 0; i < perProducer; i++ {
				e := Event{Seq: uint64(i + 1), Instance: id, Op: OpRead, Index: i, Size: perProducer}
				if p%2 == 0 {
					rec.Record(e)
					continue
				}
				if batch = append(batch, e); len(batch) == cap(batch) {
					rec.RecordBatch(batch)
					batch = batch[:0]
				}
			}
			rec.RecordBatch(batch)
		}(p)
	}
	wg.Wait()
	if err := rec.Close(); err == nil {
		t.Fatal("Close reported no error after the link died")
	}
	st := rec.Stats()
	if st.Recorded != producers*perProducer || st.Recorded != st.Delivered+st.Dropped {
		t.Fatalf("accounting broken: %+v", st)
	}
	if st.Dropped == 0 || st.Delivered == 0 {
		t.Fatalf("fault did not land mid-run: %+v", st)
	}
	cs.WaitStreams(1)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	got := cs.ServerStats().Conns[0].Events
	if uint64(got) != st.Delivered {
		t.Fatalf("server decoded %d events, recorder delivered %d", got, st.Delivered)
	}
	// The connection's store holds the events in arrival order. Delivered
	// batches are the first ones cut, so each producer's events there must
	// be a gap-free prefix of what it recorded, in recording order.
	cs.mu.Lock()
	arrived := cs.stores[0].Events(nil)
	cs.mu.Unlock()
	next := make(map[InstanceID]int)
	for _, e := range arrived {
		if e.Index != next[e.Instance] {
			t.Fatalf("producer %d: event %d arrived where %d was next", e.Instance, e.Index, next[e.Instance])
		}
		next[e.Instance]++
	}
}

// gatedConn blocks every Write until release is closed, announcing the first
// one on entered: a stand-in for a slow collector with a write in flight.
type gatedConn struct {
	net.Conn
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.once.Do(func() { close(c.entered) })
	<-c.release
	return c.Conn.Write(p)
}

// TestSocketRecorderWriteInFlight: while one producer's batch is on the
// wire, other producers keep appending (the second buffer), and
// FinishSession waits for the in-flight write instead of racing it.
func TestSocketRecorderWriteInFlight(t *testing.T) {
	server, client := net.Pipe()
	var wire bytes.Buffer
	readDone := make(chan struct{})
	go func() {
		io.Copy(&wire, server)
		close(readDone)
	}()
	conn := &gatedConn{Conn: client, entered: make(chan struct{}), release: make(chan struct{})}
	rec, err := NewSocketRecorder(conn)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSessionWith(Options{Recorder: NullRecorder{}})
	id := s.Register(KindList, "List[int]", "", 0)

	go func() {
		for i := 0; i < DefaultSocketBatch; i++ {
			rec.Record(Event{Seq: uint64(i + 1), Instance: id, Index: i})
		}
	}()
	<-conn.entered
	appended := make(chan struct{})
	go func() {
		for i := DefaultSocketBatch; i < DefaultSocketBatch+10; i++ {
			rec.Record(Event{Seq: uint64(i + 1), Instance: id, Index: i})
		}
		close(appended)
	}()
	select {
	case <-appended:
	case <-time.After(5 * time.Second):
		t.Fatal("Record blocked behind the in-flight write")
	}
	finished := make(chan error, 1)
	go func() { finished <- rec.FinishSession(s) }()
	select {
	case err := <-finished:
		t.Fatalf("FinishSession returned (%v) with a write still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(conn.release)
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
	server.Close()
	<-readDone
	if st := rec.Stats(); st.Delivered != DefaultSocketBatch+10 || st.Dropped != 0 || st.Recorded != st.Delivered {
		t.Fatalf("accounting after FinishSession: %+v", st)
	}
	sr, err := NewStreamReader(&wire)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	var kinds []byte
	for {
		ent, err := sr.readEntry()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, ent.kind)
		for _, e := range ent.events {
			seqs = append(seqs, e.Seq)
		}
	}
	if want := []byte{frameEvents, frameEvents, frameInstance, frameEnd}; !bytes.Equal(kinds, want) {
		t.Fatalf("frame kinds %x, want %x", kinds, want)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("event %d has Seq %d: frames left out of cut order", i, s)
		}
	}
}

// TestSocketRecorderAggregateFlushesFirst: an aggregate frame follows the
// events buffered before it, never overtakes them.
func TestSocketRecorderAggregateFlushesFirst(t *testing.T) {
	server, client := net.Pipe()
	var wire bytes.Buffer
	readDone := make(chan struct{})
	go func() {
		io.Copy(&wire, server)
		close(readDone)
	}()
	rec, err := NewSocketRecorder(client)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rec.Record(Event{Seq: uint64(i + 1), Instance: 1, Index: i})
	}
	rec.RecordAggregate(AggRecord{Instance: 1, N: 64})
	rec.Record(Event{Seq: 11, Instance: 1, Index: 10})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	server.Close()
	<-readDone
	sr, err := NewStreamReader(&wire)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		ent, err := sr.readEntry()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch ent.kind {
		case frameEvents:
			got = append(got, "events")
		case frameAggregate:
			got = append(got, "aggregate")
		case frameEnd:
			got = append(got, "end")
		}
	}
	if want := []string{"events", "aggregate", "events", "end"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("frames %v, want %v", got, want)
	}
}

// BenchmarkCollectorServerEvents1M: two producer connections stream 500k
// events each (interleaved Seqs, as two goroutines sharing a session
// number them) into a collector server, then Events hands back the ordered
// stream — the ingest half of `dsspy -listen`.
func BenchmarkCollectorServerEvents1M(b *testing.B) {
	const perConn = 500_000
	streams := [2][]Event{}
	for p := range streams {
		streams[p] = make([]Event, perConn)
		for i := range streams[p] {
			streams[p][i] = Event{Seq: uint64(2*i + p + 1), Instance: InstanceID(p + 1), Op: OpRead, Index: i % 512, Size: 512}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cs, err := ListenCollector("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for p := range streams {
			rec, err := DialCollector("tcp", cs.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func(events []Event) {
				defer wg.Done()
				for lo := 0; lo < len(events); lo += DefaultSocketBatch {
					rec.RecordBatch(events[lo:min(lo+DefaultSocketBatch, len(events))])
				}
				rec.Close()
			}(streams[p])
		}
		wg.Wait()
		cs.WaitStreams(len(streams))
		cs.Close()
		if n := len(cs.Events()); n != 2*perConn {
			b.Fatalf("got %d events, want %d", n, 2*perConn)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*perConn), "ns/event")
}

// BenchmarkSocketEmit2P: two goroutines emit per-event through one session
// over a loopback socket recorder — the producer half of `dsspy -collect`
// with two goroutines. Reported per event, through FinishSession.
func BenchmarkSocketEmit2P(b *testing.B) {
	const perProducer = 250_000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cs, err := ListenCollector("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		rec, err := DialCollector("tcp", cs.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		s := NewSessionWith(Options{Recorder: rec})
		ids := [2]InstanceID{s.Register(KindList, "List[int]", "", 0), s.Register(KindList, "List[int]", "", 0)}
		b.StartTimer()
		var wg sync.WaitGroup
		for _, id := range ids {
			wg.Add(1)
			go func(id InstanceID) {
				defer wg.Done()
				for j := 0; j < perProducer; j++ {
					s.Emit(id, OpInsert, j, j+1)
				}
			}(id)
		}
		wg.Wait()
		if err := rec.FinishSession(s); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cs.WaitStreams(1)
		cs.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*perProducer), "ns/event")
}
