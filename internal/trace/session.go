package trace

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"dsspy/internal/obs"
)

// Session owns the sequencing counter, the instance registry, and the
// recorder for one profiling run. It is safe for concurrent use: instrumented
// containers on any number of goroutines may register instances and emit
// events simultaneously.
//
// A Session corresponds to one execution of the instrumented program in the
// paper's pipeline (Figure 4): everything recorded through it is analyzed
// post-mortem as one set of runtime profiles.
type Session struct {
	seq atomic.Uint64
	rec Recorder

	// gate, when non-nil, decides per event whether it is recorded at all
	// (adaptive sampling). A gated-out event consumes no sequence number
	// and is never materialized; the gate keeps exact keep/drop counts.
	gate Gate

	captureThreads bool
	captureSites   bool

	// bound, when non-nil, routes Emit through a single-goroutine batched
	// producer (BindDefault). Written only on the owning goroutine under
	// BindDefault's single-producer contract; nil for concurrent sessions.
	bound *Producer

	// Producer-batching effectiveness (see producer.go): events per flush
	// and flush latency, exported as dsspy_batch_* metrics.
	batchFill  obs.Histogram
	batchFlush obs.Histogram

	// Lazy-aggregation plumbing (see aggregate.go): the optional analyzer
	// sink aggregate flushes are forwarded to, and counters for the
	// dsspy_aggregate_* metrics.
	aggSink    aggSinkPtr
	aggFlushes atomic.Uint64
	aggEvents  atomic.Uint64

	mu        sync.RWMutex
	instances []Instance // index = InstanceID-1
	handles   []*Handle  // container fast-path handles (handle.go)

	// Restore accounting (restoreInstance): records placed and placeholder
	// slots created for gaps.
	restored     int
	placeholders int
}

// Gate decides, before an event is materialized, whether it enters the
// recorder. It is the trace-layer hook for the adaptive sampling controller
// (internal/sample): the per-event paths call Admit, batched producers use
// the credit protocol — AdmitRun grants one decision covering up to `credit`
// consecutive events for the same instance, and Observe settles the exact
// number of events the producer emitted under its grants. Implementations
// must be safe for concurrent use.
type Gate interface {
	// Admit decides one event.
	Admit(id InstanceID, thr ThreadID) bool
	// AdmitRun grants a decision covering up to credit (≥1) consecutive
	// events of instance id. The caller settles actual consumption via
	// Observe.
	AdmitRun(id InstanceID, thr ThreadID) (admit bool, credit int)
	// Observe settles kept/dropped counts consumed under AdmitRun grants.
	Observe(id InstanceID, kept, dropped uint64)
}

// ShapeBinder is an optional Gate extension. A gate that also implements it
// is told, at Register time, the registration shape of every instance — a
// hash of its (kind, type name, label) triple. Gates that learn across
// instance lifetimes (the adaptive sampling controller) use the shape to
// carry stability evidence from one incarnation of a logical structure to
// the next: always-on workloads re-create the same lists and maps over and
// over, and without inheritance every incarnation pays the full
// stabilization ramp at fidelity 1.
type ShapeBinder interface {
	BindShape(id InstanceID, shape uint64)
}

// shapeHash is FNV-1a over the registration triple, with a separator so
// ("ab","c") and ("a","bc") hash apart.
func shapeHash(kind Kind, typeName, label string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= uint64(kind)
	h *= prime64
	for i := 0; i < len(typeName); i++ {
		h ^= uint64(typeName[i])
		h *= prime64
	}
	h ^= 0xff
	h *= prime64
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return h
}

// Options configures a Session.
type Options struct {
	// Recorder receives every event. Defaults to a fresh MemRecorder.
	Recorder Recorder
	// Gate, when non-nil, is consulted before every event is materialized
	// (adaptive sampling). Leave nil for full fidelity — a nil gate costs
	// one predictable branch per event.
	Gate Gate
	// CaptureThreads records the goroutine id on each event. Goroutine-id
	// capture costs a runtime.Stack call per goroutine (cached), so it is
	// opt-in; without it Thread is 0.
	CaptureThreads bool
	// CaptureSites records the instantiation call site of each instance
	// via runtime.Caller. On by default through NewSession.
	CaptureSites bool
}

// NewSession returns a Session with call-site capture enabled and an
// in-memory recorder, the configuration the analysis pipeline expects.
func NewSession() *Session {
	return NewSessionWith(Options{CaptureSites: true})
}

// NewSessionWith returns a Session with explicit options.
func NewSessionWith(opts Options) *Session {
	rec := opts.Recorder
	if rec == nil {
		rec = NewMemRecorder()
	}
	s := &Session{
		rec:            rec,
		gate:           opts.Gate,
		captureThreads: opts.CaptureThreads,
		captureSites:   opts.CaptureSites,
	}
	s.batchFill.Init()
	s.batchFlush.Init()
	return s
}

// Recorder returns the session's recorder.
func (s *Session) Recorder() Recorder { return s.rec }

// Gate returns the session's sampling gate, or nil.
func (s *Session) Gate() Gate { return s.gate }

// Register adds a new instance to the registry and returns its ID.
// skip is the number of stack frames between the caller of the instrumented
// constructor and Register itself, used for call-site capture; pass 0 when
// calling Register directly.
func (s *Session) Register(kind Kind, typeName, label string, skip int) InstanceID {
	var site Site
	if s.captureSites {
		site = callerSite(skip + 2)
	}
	s.mu.Lock()
	id := InstanceID(len(s.instances) + 1)
	s.instances = append(s.instances, Instance{
		ID:       id,
		Kind:     kind,
		TypeName: typeName,
		Label:    label,
		Site:     site,
	})
	s.mu.Unlock()
	if sb, ok := s.gate.(ShapeBinder); ok {
		sb.BindShape(id, shapeHash(kind, typeName, label))
	}
	return id
}

// Instance returns the registry entry for id. The second result is false for
// unknown ids.
func (s *Session) Instance(id InstanceID) (Instance, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id == 0 || int(id) > len(s.instances) {
		return Instance{}, false
	}
	return s.instances[id-1], true
}

// Instances returns a copy of the registry in registration order.
func (s *Session) Instances() []Instance {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Instance, len(s.instances))
	copy(out, s.instances)
	return out
}

// NumInstances returns the number of registered instances.
func (s *Session) NumInstances() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.instances)
}

// Emit records one access event against instance id. It assigns the next
// session-wide sequence number, captures the goroutine id if enabled, and
// forwards the event to the recorder. Hot loops should prefer Bind: the
// returned Producer caches the goroutine id and batches delivery, amortizing
// every per-event cost here by the batch size.
func (s *Session) Emit(id InstanceID, op Op, index, size int) {
	if p := s.bound; p != nil {
		p.Emit(id, op, index, size)
		return
	}
	var thr ThreadID
	if s.captureThreads {
		thr = CurrentThreadID()
	}
	if g := s.gate; g != nil && !g.Admit(id, thr) {
		return
	}
	s.rec.Record(Event{
		Seq:      s.seq.Add(1),
		Instance: id,
		Op:       op,
		Index:    index,
		Size:     size,
		Thread:   thr,
	})
}

// SetLabel replaces the label of a registered instance. Workload drivers use
// this to attach semantic names ("population", "terminal set") after
// construction, which makes reports readable.
func (s *Session) SetLabel(id InstanceID, label string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id != 0 && int(id) <= len(s.instances) {
		s.instances[id-1].Label = label
	}
}

func callerSite(skip int) Site {
	// Walk up past constructor-wrapper frames (the instrumented containers
	// and the public facade), so the recorded site is the user's
	// instantiation location, matching how the paper binds use cases to
	// source positions.
	var pcs [12]uintptr
	n := runtime.Callers(skip+1, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	var first Site
	for {
		f, more := frames.Next()
		site := Site{File: f.File, Line: f.Line, Function: f.Function}
		if first.File == "" {
			first = site
		}
		if !wrapperFrame(f.Function) {
			return site
		}
		if !more {
			return first
		}
	}
}

func wrapperFrame(fn string) bool {
	return strings.HasPrefix(fn, "dsspy/internal/dstruct.") ||
		strings.HasPrefix(fn, "dsspy.New")
}

// String summarizes the session for debugging.
func (s *Session) String() string {
	return fmt.Sprintf("trace.Session{instances=%d, events=%d}",
		s.NumInstances(), s.seq.Load())
}
