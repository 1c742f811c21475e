// Online reducers: the per-instance analysis state as fold operations over
// single events, so one pass over the stream — during execution, not after it
// — produces the same figures the batch pipeline derives from a retained
// trace. StreamStats folds events into Stats; StreamSegmenter is the run
// segmentation of runs.go re-expressed as a state machine that emits each
// maximal run the moment the next event closes it, holding only the open run.
// The batch entry points (Profile.Stats, Profile.RunsWith) are thin drivers
// over these reducers, so there is exactly one implementation of the paper's
// semantics.
package profile

import "dsspy/internal/trace"

// StreamStats incrementally computes a profile's Stats. Fold each event as it
// arrives; Snapshot at any time yields exactly the Stats a batch pass over
// the same events would produce. State is O(1) plus one small set per
// distinct thread id.
//
// Every figure except FinalSize is order-insensitive; FinalSize tracks the
// event with the highest sequence number, so folding a slightly reordered
// stream (concurrent producers racing between sequence assignment and
// delivery) still lands on the batch answer.
type StreamStats struct {
	st      Stats
	threads threadSet
	writers threadSet
	readers threadSet
	lastSeq uint64
}

// Fold adds one event.
func (ss *StreamStats) Fold(e trace.Event) {
	st := &ss.st
	if st.Total == 0 {
		st.MaxIndex = -1
	}
	st.Total++
	if int(e.Op) < len(st.ByOp) {
		st.ByOp[e.Op]++
	}
	if e.Op.IsRead() {
		st.ReadLike++
	}
	if e.Op.IsWrite() {
		st.WriteLike++
		ss.writers.add(e.Thread)
	} else {
		ss.readers.add(e.Thread)
	}
	if e.Size > st.MaxSize {
		st.MaxSize = e.Size
	}
	if e.Seq >= ss.lastSeq {
		ss.lastSeq = e.Seq
		st.FinalSize = e.Size
	}
	ss.threads.add(e.Thread)
	if e.Index >= 0 {
		st.IndexedOps++
		if e.Index > st.MaxIndex {
			st.MaxIndex = e.Index
		}
		if e.Index <= endTolerance {
			st.FrontHits++
		}
		// The back end moves with the structure: an access is a back hit if
		// it lands at the last occupied position at that moment.
		if e.Size > 0 && e.Index >= e.Size-1-endTolerance {
			st.BackHits++
		} else if e.Op == trace.OpInsert && e.Index == max(0, e.Size-1) {
			st.BackHits++
		}
	}
}

// FoldBatch folds events [i, j) of a column batch — exactly Fold applied per
// event, but walking the columns in one tight loop so a batch arriving from
// the columnar drain or a v3 replay never inflates to Event structs. The
// fuzz differential (FuzzColumnarFoldDifferential) holds the two forms equal.
func (ss *StreamStats) FoldBatch(b *trace.ColumnBatch, i, j int) {
	if i >= j {
		return
	}
	if ss.st.Total == 0 {
		ss.st.MaxIndex = -1
	}
	ss.st.Total += j - i
	// Thread sets change per thread run, not per event.
	for i < j {
		e := b.ThreadRun(i, j)
		thr := b.Thread[i]
		wrote, read := ss.foldOps(b, i, e)
		ss.threads.add(thr)
		if wrote {
			ss.writers.add(thr)
		}
		if read {
			ss.readers.add(thr)
		}
		i = e
	}
}

// foldOps folds the per-event figures of events [i, j) and reports whether
// any of them was write-like, and whether any was not.
func (ss *StreamStats) foldOps(b *trace.ColumnBatch, i, j int) (wrote, read bool) {
	st := &ss.st
	seqs := b.Seq[i:j]
	ops := b.Op[i:j]
	idxs := b.Index[i:j]
	sizes := b.Size[i:j]
	for k, op := range ops {
		idx, size := idxs[k], sizes[k]
		if int(op) < len(st.ByOp) {
			st.ByOp[op]++
		}
		if op.IsRead() {
			st.ReadLike++
		}
		if op.IsWrite() {
			st.WriteLike++
			wrote = true
		} else {
			read = true
		}
		if size > st.MaxSize {
			st.MaxSize = size
		}
		if s := seqs[k]; s >= ss.lastSeq {
			ss.lastSeq = s
			st.FinalSize = size
		}
		if idx >= 0 {
			st.IndexedOps++
			if idx > st.MaxIndex {
				st.MaxIndex = idx
			}
			if idx <= endTolerance {
				st.FrontHits++
			}
			// The back end moves with the structure: an access is a back hit
			// if it lands at the last occupied position at that moment.
			if size > 0 && idx >= size-1-endTolerance {
				st.BackHits++
			} else if op == trace.OpInsert && idx == max(0, size-1) {
				st.BackHits++
			}
		}
	}
	return wrote, read
}

// Events returns the number of events folded so far.
func (ss *StreamStats) Events() int { return ss.st.Total }

// Snapshot returns the aggregate figures over everything folded so far.
func (ss *StreamStats) Snapshot() *Stats {
	st := ss.st
	if st.Total == 0 {
		st.MaxIndex = -1
	}
	st.Threads = len(ss.threads)
	st.WriterIDs = len(ss.writers)
	st.ReaderIDs = len(ss.readers)
	return &st
}

// Clone returns an independent copy, used by snapshot-at-any-time readers.
func (ss *StreamStats) Clone() *StreamStats {
	out := &StreamStats{st: ss.st, lastSeq: ss.lastSeq}
	out.threads = append(threadSet(nil), ss.threads...)
	out.writers = append(threadSet(nil), ss.writers...)
	out.readers = append(threadSet(nil), ss.readers...)
	return out
}

// StreamSegmenter is run segmentation as a state machine: Feed returns the
// run an event closes (if any), Finish flushes the still-open run. Start/End
// are ordinals in feed order, so feeding a profile's events reproduces the
// batch segmentation of runs.go index for index.
type StreamSegmenter struct {
	opts SegmentOptions
	open bool
	run  Run
	prev trace.Event
	next int // ordinal assigned to the next event
}

// NewStreamSegmenter returns a segmenter with the given options.
func NewStreamSegmenter(opts SegmentOptions) *StreamSegmenter {
	if opts.MaxStep < 1 {
		opts.MaxStep = 1
	}
	return &StreamSegmenter{opts: opts}
}

// Feed folds one event. When the event cannot extend the open run, that run
// is returned closed and the event starts a new one.
func (g *StreamSegmenter) Feed(e trace.Event) (closed Run, ok bool) {
	if g.open {
		if extendsRun(&g.run, g.prev, e, g.opts) {
			absorbRun(&g.run, g.prev, e)
			g.run.End = g.next
			g.prev = e
			g.next++
			return Run{}, false
		}
		closed, ok = g.run, true
	}
	g.run = startRunAt(e, g.next)
	g.prev = e
	g.open = true
	g.next++
	return closed, ok
}

// FeedBatch folds events [i, j) of a column batch, invoking emit for every
// run a fold closes. It is the native columnar form of Feed: the state
// machine only ever reads the previous event's index, so the loop walks the
// Op/Index/Size columns with a scalar prev instead of gathering and copying
// 48-byte Event structs per fold. The closed run is handed over by pointer
// into the segmenter's own state, valid only until emit returns — copy it to
// keep it. The fuzz differential (FuzzColumnarFoldDifferential) holds the
// two forms equal.
func (g *StreamSegmenter) FeedBatch(b *trace.ColumnBatch, i, j int, emit func(*Run)) {
	if i >= j {
		return
	}
	ops, idxs, sizes := b.Op[i:j], b.Index[i:j], b.Size[i:j]
	r := &g.run
	prevIdx := g.prev.Index
	for k, op := range ops {
		idx, size := idxs[k], sizes[k]
		if g.open && extendCols(r, g.opts, prevIdx, op, idx, size) {
			r.End = g.next
		} else {
			if g.open {
				emit(r)
			}
			startRunCols(r, op, idx, size, g.next)
			g.open = true
		}
		prevIdx = idx
		g.next++
	}
	// One gather per batch keeps g.prev exact for a later per-event Feed.
	g.prev = b.At(j - 1)
}

// isBackCols is isBack over scalars.
func isBackCols(op trace.Op, idx, size int) bool {
	if op == trace.OpDelete {
		return idx >= size
	}
	return size > 0 && idx >= size-1
}

// startRunCols is startRunAt over scalars, writing the new run in place:
// field by field, so no run-sized temporary is built and copied per run.
func startRunCols(r *Run, op trace.Op, idx, size, i int) {
	r.Op = op
	r.Start, r.End = i, i
	r.Direction = DirNone
	r.FirstIndex, r.LastIndex, r.MinIndex, r.MaxIndex = idx, idx, idx, idx
	r.MaxSeenSize = size
	indexed := idx >= 0
	r.AllFront = indexed && idx == 0
	r.AllBack = indexed && isBackCols(op, idx, size)
	r.StrictlyUp, r.StrictlyDown = indexed, indexed
}

// extendCols is extendsRun and, when the event continues the run,
// absorbRun, over scalars (prev contributes only its index): one call per
// folded event. It reports whether the event joined the run.
func extendCols(r *Run, opts SegmentOptions, prevIdx int, op trace.Op, idx, size int) bool {
	if op != r.Op {
		return false
	}
	if idx < 0 || prevIdx < 0 {
		// Whole-structure operations merge unconditionally.
		if idx >= 0 || prevIdx >= 0 {
			return false
		}
		r.MaxSeenSize = max(r.MaxSeenSize, size)
		return true
	}
	if op == trace.OpInsert || op == trace.OpDelete {
		if !(r.AllFront && idx == 0) &&
			!(r.AllBack && isBackCols(op, idx, size)) &&
			!(r.StrictlyUp && idx == prevIdx+1) &&
			!(r.StrictlyDown && idx == prevIdx-1) {
			return false
		}
	} else {
		switch dir := stepDirection(idx-prevIdx, opts); {
		case dir == DirNone:
			return false
		case r.Direction == DirNone:
			// The second event fixes the direction.
		case r.Direction == DirStationary:
			if dir != DirStationary {
				return false
			}
		case dir != r.Direction && !(dir == DirStationary && opts.AllowRepeat):
			return false
		}
	}
	if r.Direction == DirNone {
		switch {
		case idx > prevIdx:
			r.Direction = DirForward
		case idx < prevIdx:
			r.Direction = DirBackward
		default:
			r.Direction = DirStationary
		}
	}
	r.LastIndex = idx
	r.MinIndex = min(r.MinIndex, idx)
	r.MaxIndex = max(r.MaxIndex, idx)
	r.AllFront = r.AllFront && idx == 0
	r.AllBack = r.AllBack && isBackCols(op, idx, size)
	r.StrictlyUp = r.StrictlyUp && idx == prevIdx+1
	r.StrictlyDown = r.StrictlyDown && idx == prevIdx-1
	r.MaxSeenSize = max(r.MaxSeenSize, size)
	return true
}

// Finish closes and returns the open run, if any. The segmenter is reset and
// can keep folding afterwards (the next event starts a fresh run).
func (g *StreamSegmenter) Finish() (Run, bool) {
	if !g.open {
		return Run{}, false
	}
	g.open = false
	return g.run, true
}

// Open reports whether a run is currently open (state held, not yet emitted).
func (g *StreamSegmenter) Open() bool { return g.open }

// Clone returns an independent copy of the segmenter state.
func (g *StreamSegmenter) Clone() *StreamSegmenter {
	out := *g
	return &out
}

// startRunAt begins a run whose first event e has ordinal i.
func startRunAt(e trace.Event, i int) Run {
	r := Run{
		Op:          e.Op,
		Start:       i,
		End:         i,
		FirstIndex:  e.Index,
		LastIndex:   e.Index,
		MinIndex:    e.Index,
		MaxIndex:    e.Index,
		MaxSeenSize: e.Size,
	}
	if e.Index >= 0 {
		r.AllFront = e.Index == 0
		r.AllBack = isBack(e)
		r.StrictlyUp = true
		r.StrictlyDown = true
	}
	return r
}

// extendsRun reports whether event e (preceded by prev) can continue the run.
func extendsRun(r *Run, prev, e trace.Event, opts SegmentOptions) bool {
	if e.Op != r.Op {
		return false
	}
	// Whole-structure operations merge unconditionally.
	if e.Index < 0 || prev.Index < 0 {
		return e.Index < 0 && prev.Index < 0
	}
	// Insert/Delete streams extend while they stay consistent with at least
	// one end or strict direction, so a front-deletion phase and a following
	// back-deletion phase become two runs, each classifiable.
	if e.Op == trace.OpInsert || e.Op == trace.OpDelete {
		return (r.AllFront && e.Index == 0) ||
			(r.AllBack && isBack(e)) ||
			(r.StrictlyUp && e.Index == prev.Index+1) ||
			(r.StrictlyDown && e.Index == prev.Index-1)
	}
	step := e.Index - prev.Index
	dir := stepDirection(step, opts)
	if dir == DirNone {
		return false
	}
	switch r.Direction {
	case DirNone:
		return true // second event fixes the direction
	case DirStationary:
		return dir == DirStationary
	default:
		return dir == r.Direction || (dir == DirStationary && opts.AllowRepeat)
	}
}

// absorbRun folds event e (preceded by prev) into the run.
func absorbRun(r *Run, prev, e trace.Event) {
	if e.Index >= 0 {
		if r.Direction == DirNone && prev.Index >= 0 {
			switch {
			case e.Index > prev.Index:
				r.Direction = DirForward
			case e.Index < prev.Index:
				r.Direction = DirBackward
			default:
				r.Direction = DirStationary
			}
		}
		r.LastIndex = e.Index
		if e.Index < r.MinIndex {
			r.MinIndex = e.Index
		}
		if e.Index > r.MaxIndex {
			r.MaxIndex = e.Index
		}
		r.AllFront = r.AllFront && e.Index == 0
		r.AllBack = r.AllBack && isBack(e)
		if prev.Index >= 0 {
			r.StrictlyUp = r.StrictlyUp && e.Index == prev.Index+1
			r.StrictlyDown = r.StrictlyDown && e.Index == prev.Index-1
		}
	}
	if e.Size > r.MaxSeenSize {
		r.MaxSeenSize = e.Size
	}
}

// NewStreamed returns an event-free profile standing in for n streamed
// events: the stream pipeline retains aggregate state instead of the trace,
// so Len and Stats answer from the folded figures while Events stays nil.
func NewStreamed(inst trace.Instance, n int, st *Stats) *Profile {
	return &Profile{Instance: inst, streamed: n, stats: st}
}

// PrimeStats installs precomputed aggregate figures so later Stats calls do
// not refold the events. The caller asserts st was computed over exactly
// p.Events.
func (p *Profile) PrimeStats(st *Stats) { p.stats = st }
