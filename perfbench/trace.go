package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval on a layer boundary. Spans of one request
// or sample share Req; Parent is the enclosing span's ID (0 at the
// top). Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one branch per boundary.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span under a reserved ID.
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// inf stands for the latency of a shed or failed request.
var inf = math.Inf(1)

// tailQuantile is the highest quantile with at least ten samples beyond
// it, capped at p99: p99 from 1,000 samples up.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	q := float64(n-10) / float64(n)
	return math.Min(q, 0.99)
}

// quantile is the exact nearest-rank quantile of xs (sorted in place).
// Infinite entries stand for failed requests and sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// usSince is the microseconds elapsed since t.
func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }
