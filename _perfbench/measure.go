package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"
)

// kind classifies a timed operation. Reads of kind other (HTTP /count and
// the hot set of repeated queries) count toward read throughput and the
// read tail, but not toward a per-shape p50: hot-set requests are mostly
// cache hits, and mixing them into search_p50_us would make that median
// jump between two modes.
type kind int

const (
	kSearch kind = iota
	kStab
	kSlice
	kSnap
	kOther
	kInsert
	kDelete
	nKinds
)

func (k kind) write() bool { return k >= kInsert }

// recorder holds one goroutine's latencies (µs) and completion times (ns
// since the window opened); recorders are merged after the goroutines end.
type recorder struct {
	lat  [nKinds][]float64
	ends [2][]int64 // [0] reads, [1] writes
	ops  int
	fail int
}

func (r *recorder) add(k kind, start, end, open time.Time) {
	r.lat[k] = append(r.lat[k], float64(end.Sub(start).Nanoseconds())/1e3)
	w := 0
	if k.write() {
		w = 1
	}
	r.ends[w] = append(r.ends[w], end.Sub(open).Nanoseconds())
	r.ops++
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	for i := range r.ends {
		r.ends[i] = append(r.ends[i], o.ends[i]...)
	}
	r.ops += o.ops
	r.fail += o.fail
}

func (r *recorder) count(ks ...kind) int {
	n := 0
	for _, k := range ks {
		n += len(r.lat[k])
	}
	return n
}

func (r *recorder) reads() int  { return r.count(kSearch, kStab, kSlice, kSnap, kOther) }
func (r *recorder) writes() int { return r.count(kInsert, kDelete) }

// quantile returns the q-quantile of xs by linear interpolation (0 for an
// empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func p50(xs []float64) float64 { return quantile(xs, 0.5) }

func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// pooled concatenates the latencies of several kinds.
func (r *recorder) pooled(ks ...kind) []float64 {
	var out []float64
	for _, k := range ks {
		out = append(out, r.lat[k]...)
	}
	return out
}

// rate is the median, over the ten equal parts of a window of the given
// length, of operations completed per second in each part. A median of
// parts, not a mean over the window, because on a shared host a burst of
// neighbouring load slows a part or two; it should not move the figure.
func rate(ends []int64, window time.Duration) float64 {
	const parts = 10
	part := window.Nanoseconds() / parts
	var n [parts]float64
	for _, e := range ends {
		if i := e / part; i >= 0 && i < parts {
			n[i]++
		}
	}
	return median(n[:]) / (float64(part) / 1e9)
}

// span is one traced call: a named interval, the span that caused it (0
// for none), and times in ns since the run started.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory; a nil tracer records nothing, so the
// untraced run pays one nil check per call.
type tracer struct {
	origin time.Time
	nextID *atomic.Int64
	spans  []span
}

func newTracer(origin time.Time, ids *atomic.Int64) *tracer {
	return &tracer{origin: origin, nextID: ids}
}

// add records a span and returns its ID.
func (t *tracer) add(name string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.nextID.Add(1)
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent,
		Start: start.Sub(t.origin).Nanoseconds(), Dur: end.Sub(start).Nanoseconds(),
	})
	return id
}

// maxSpansWritten caps the trace file; the per-layer figures use every
// span, the file is for reading a run by eye.
const maxSpansWritten = 20000

// writeTrace writes the first spans of a traced run as JSON lines.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, s := range spans {
		if i == maxSpansWritten {
			break
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// spansOrNil returns the recorded spans (nil for the untraced run).
func (t *tracer) spansOrNil() []span {
	if t == nil {
		return nil
	}
	return t.spans
}
