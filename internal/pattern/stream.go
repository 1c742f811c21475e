// StreamDetector: pattern detection as an online reducer. It drives a
// profile.StreamSegmenter over the event stream, classifies each run the
// moment it closes, and folds the classification into a Summary — so the only
// state between events is the open run plus O(patterns) aggregates. The batch
// entry points (DetectWith, Summarize) are thin drivers over the same fold,
// keeping exactly one implementation of the paper's classification semantics.
package pattern

import (
	"dsspy/internal/profile"
	"dsspy/internal/trace"
)

// Closed is what Feed emits when an event closes a run: the run itself plus
// its classification (None when the run is below MinLen or matches no type).
// Streaming use-case detectors consume closed runs without retaining events.
type Closed struct {
	Run  profile.Run
	Type Type
}

// StreamDetector incrementally detects patterns over a single ordered event
// stream (one instance, one thread — callers split per thread exactly like
// SummarizeThreads does).
type StreamDetector struct {
	cfg  Config
	seg  *profile.StreamSegmenter
	sum  Summary
	keep bool
}

// NewStreamDetector returns a detector with the given configuration. When
// keepPatterns is set the Summary retains the full pattern list (the report
// renders per-pattern rows); otherwise only aggregates are kept, which is
// what the regularity check needs.
func NewStreamDetector(cfg Config, keepPatterns bool) *StreamDetector {
	if cfg.MinLen < 2 {
		cfg.MinLen = 2
	}
	return &StreamDetector{
		cfg:  cfg,
		seg:  profile.NewStreamSegmenter(cfg.Segment),
		keep: keepPatterns,
	}
}

// Feed folds one event; when the event closes a run, the run and its
// classification are returned.
func (d *StreamDetector) Feed(e trace.Event) (Closed, bool) {
	r, ok := d.seg.Feed(e)
	if !ok {
		return Closed{}, false
	}
	return d.FoldRun(r), true
}

// FeedBatch folds events [i, j) of a column batch, invoking emit for every
// closed run with its classification — the batch form of Feed, driven by the
// segmenter's column walk. The run is lent by pointer, as the segmenter lends
// it: valid only until emit returns.
func (d *StreamDetector) FeedBatch(b *trace.ColumnBatch, i, j int, emit func(*profile.Run, Type)) {
	d.seg.FeedBatch(b, i, j, func(r *profile.Run) { emit(r, d.fold(r)) })
}

// FoldRun classifies one closed run and folds it into the summary. Exposed so
// batch drivers can reuse an already-segmented run list.
func (d *StreamDetector) FoldRun(r profile.Run) Closed {
	return Closed{Run: r, Type: d.fold(&r)}
}

// fold classifies r, folds it into the summary and returns its type (None
// when the run is below MinLen or matches no type).
func (d *StreamDetector) fold(r *profile.Run) Type {
	t := None
	if r.Len() >= d.cfg.MinLen {
		t = classify(r)
	}
	if t != None {
		d.sum.add(t, r)
		if d.keep {
			d.sum.Patterns = append(d.sum.Patterns, Pattern{Type: t, Run: *r})
		}
	}
	return t
}

// Finish flushes the still-open run, if any, classifying and folding it. The
// detector stays usable afterwards (the next Feed starts a fresh run), which
// is what lets snapshots finalize a clone while the live detector keeps going.
func (d *StreamDetector) Finish() (Closed, bool) {
	r, ok := d.seg.Finish()
	if !ok {
		return Closed{}, false
	}
	return d.FoldRun(r), true
}

// Open reports whether a run is currently held open.
func (d *StreamDetector) Open() bool { return d.seg.Open() }

// Summary returns the aggregates over everything folded so far. The returned
// value is a copy; the detector may keep folding.
func (d *StreamDetector) Summary() *Summary {
	s := d.sum
	return &s
}

// Clone returns an independent copy, used by snapshot-at-any-time readers.
func (d *StreamDetector) Clone() *StreamDetector {
	out := &StreamDetector{cfg: d.cfg, seg: d.seg.Clone(), sum: d.sum, keep: d.keep}
	out.sum.Patterns = append([]Pattern(nil), d.sum.Patterns...)
	return out
}

// Fork returns an independent copy that keeps aggregates only: the open run
// and Summary counters carry over, the retained pattern list does not. A
// detector that has seen a whole stream so far can thus hand its state to a
// second consumer of the same stream without that consumer re-segmenting
// the prefix.
func (d *StreamDetector) Fork() *StreamDetector {
	out := &StreamDetector{cfg: d.cfg, seg: d.seg.Clone(), sum: d.sum}
	out.sum.Patterns = nil
	return out
}

// compoundOps are the whole-structure operations whose heavy recurrence
// counts as a regularity even without positional patterns.
var compoundOps = [...]trace.Op{
	trace.OpSearch, trace.OpSort, trace.OpForAll, trace.OpCopy, trace.OpResize,
}

// RegularityFrom decides regularity from already-computed aggregates — the
// form both the batch driver and the streaming analyzer share.
func RegularityFrom(sum *Summary, st *profile.Stats, rcfg RegularityConfig) bool {
	if rcfg.MinRepeats > 0 {
		for _, n := range sum.ByType {
			if n >= rcfg.MinRepeats {
				return true
			}
		}
	}
	if rcfg.MinLongRun > 0 && sum.LongestPattern >= rcfg.MinLongRun {
		return true
	}
	if rcfg.MinCompoundOps > 0 {
		for _, op := range compoundOps {
			if st.Count(op) >= rcfg.MinCompoundOps {
				return true
			}
		}
	}
	return false
}
