// Package metrics is the serving layer's observability registry: per-route
// request counters, status-class counters, fixed-bucket latency histograms,
// an in-flight gauge and a load-shed counter, all lock-free on the hot
// path (atomics only). A Snapshot marshals cleanly to JSON so GET
// /v1/stats and the nightly bench job can scrape it without a protocol
// dependency (the expvar idea, with typed structure instead of a flat
// string map).
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBuckets are the histogram upper bounds in milliseconds: a
// 1–2.5–5 ladder from 1 µs to 1 s. A warm /v1/estimate takes a few
// microseconds and a warm /v1/recipe tens of them, so the ladder starts
// low enough to resolve the hot path; cold multi-ingredient recipes land
// in the millisecond buckets, and anything beyond a second indicates
// overload or a stuck dependency.
var DefaultBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000,
}

// Histogram counts observations into fixed latency buckets. All methods
// are safe for concurrent use; counters only ever increase.
type Histogram struct {
	upperMs []float64
	counts  []atomic.Uint64 // len(upperMs) buckets + 1 overflow at the end
	count   atomic.Uint64
	sumNs   atomic.Int64
}

// NewHistogram builds a histogram over the given upper bounds
// (milliseconds, must be sorted ascending). nil selects DefaultBuckets.
func NewHistogram(upperMs []float64) *Histogram {
	if upperMs == nil {
		upperMs = DefaultBuckets
	}
	h := &Histogram{
		upperMs: append([]float64(nil), upperMs...),
		counts:  make([]atomic.Uint64, len(upperMs)+1),
	}
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	// Binary search: first bucket whose upper bound admits ms; beyond
	// the last bound lands in the overflow slot.
	i := sort.SearchFloat64s(h.upperMs, ms)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Bucket is one histogram bucket in a snapshot. Counts are per-bucket
// (not cumulative); UpperMs is the inclusive upper bound.
type Bucket struct {
	UpperMs float64 `json:"upper_ms"`
	Count   uint64  `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count    uint64   `json:"count"`
	SumMs    float64  `json:"sum_ms"`
	MeanMs   float64  `json:"mean_ms"`
	Buckets  []Bucket `json:"buckets"`
	Overflow uint64   `json:"overflow"` // observations above the last bound
}

// Snapshot copies the histogram counters. Not atomic across buckets
// under concurrent load, which is fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		SumMs:   float64(h.sumNs.Load()) / float64(time.Millisecond),
		Buckets: make([]Bucket, len(h.upperMs)),
	}
	for i := range h.upperMs {
		s.Buckets[i] = Bucket{UpperMs: h.upperMs[i], Count: h.counts[i].Load()}
	}
	s.Overflow = h.counts[len(h.upperMs)].Load()
	if s.Count > 0 {
		s.MeanMs = s.SumMs / float64(s.Count)
	}
	return s
}

// Route aggregates one route's counters.
type Route struct {
	requests atomic.Uint64
	// classes counts responses by status class: index 2 holds 2xx, etc.
	// Index 0 collects anything outside 100–599.
	classes [6]atomic.Uint64
	latency *Histogram
}

// Observe records one completed request.
func (r *Route) Observe(status int, d time.Duration) {
	r.requests.Add(1)
	c := status / 100
	if c < 1 || c > 5 {
		c = 0
	}
	r.classes[c].Add(1)
	r.latency.Observe(d)
}

// RouteSnapshot is a point-in-time copy of one route's counters.
type RouteSnapshot struct {
	Requests uint64            `json:"requests"`
	ByClass  map[string]uint64 `json:"by_class"` // "2xx" → count; empty classes omitted
	Latency  HistogramSnapshot `json:"latency"`
}

// Registry holds the process's route metrics plus the cross-route
// in-flight gauge and shed counter. The zero value is not usable;
// construct with NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	routes map[string]*Route

	inFlight atomic.Int64
	shed     atomic.Uint64

	// Bulk-stream counters for the streaming /v1/batch endpoint. Route
	// counters see one request per stream; these count the work inside
	// it — NDJSON lines, per-line errors reported in-stream, estimator
	// windows — plus a gauge of streams currently held open.
	batchLines      atomic.Uint64
	batchLineErrors atomic.Uint64
	batchWindows    atomic.Uint64
	bulkActive      atomic.Int64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{routes: make(map[string]*Route)}
}

// Route returns the named route's counters, creating them on first use.
func (g *Registry) Route(name string) *Route {
	g.mu.RLock()
	r := g.routes[name]
	g.mu.RUnlock()
	if r != nil {
		return r
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if r = g.routes[name]; r == nil {
		r = &Route{latency: NewHistogram(nil)}
		g.routes[name] = r
	}
	return r
}

// IncInFlight/DecInFlight maintain the cross-route in-flight gauge.
func (g *Registry) IncInFlight() { g.inFlight.Add(1) }
func (g *Registry) DecInFlight() { g.inFlight.Add(-1) }

// InFlight reads the gauge.
func (g *Registry) InFlight() int64 { return g.inFlight.Load() }

// AddShed counts one request rejected by admission control.
func (g *Registry) AddShed() { g.shed.Add(1) }

// Shed reads the lifetime shed counter.
func (g *Registry) Shed() uint64 { return g.shed.Load() }

// AddBatchLines counts n NDJSON lines answered on bulk streams (error
// lines included — every non-empty input line produces exactly one).
func (g *Registry) AddBatchLines(n uint64) { g.batchLines.Add(n) }

// AddBatchLineErrors counts n per-line errors reported in-stream.
func (g *Registry) AddBatchLineErrors(n uint64) { g.batchLineErrors.Add(n) }

// AddBatchWindow counts one estimator window processed by a bulk stream.
func (g *Registry) AddBatchWindow() { g.batchWindows.Add(1) }

// IncBulkActive/DecBulkActive maintain the open-bulk-streams gauge.
func (g *Registry) IncBulkActive() { g.bulkActive.Add(1) }
func (g *Registry) DecBulkActive() { g.bulkActive.Add(-1) }

// BatchSnapshot is a point-in-time copy of the bulk-stream counters.
type BatchSnapshot struct {
	Lines      uint64 `json:"lines"`
	LineErrors uint64 `json:"line_errors"`
	Windows    uint64 `json:"windows"`
	Active     int64  `json:"active_streams"`
}

// Snapshot is a point-in-time copy of every counter in the registry.
type Snapshot struct {
	InFlight int64                    `json:"in_flight"`
	Shed     uint64                   `json:"shed"`
	Batch    BatchSnapshot            `json:"batch"`
	Routes   map[string]RouteSnapshot `json:"routes"`
}

// TotalRequests sums route request counts — the convenient monotonic
// aggregate the stress tests assert on.
func (s Snapshot) TotalRequests() uint64 {
	var n uint64
	for _, r := range s.Routes {
		n += r.Requests
	}
	return n
}

// Snapshot copies the registry. Counter reads are not atomic across
// routes under concurrent load; each individual counter is monotonic.
func (g *Registry) Snapshot() Snapshot {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s := Snapshot{
		InFlight: g.inFlight.Load(),
		Shed:     g.shed.Load(),
		Batch: BatchSnapshot{
			Lines:      g.batchLines.Load(),
			LineErrors: g.batchLineErrors.Load(),
			Windows:    g.batchWindows.Load(),
			Active:     g.bulkActive.Load(),
		},
		Routes: make(map[string]RouteSnapshot, len(g.routes)),
	}
	for name, r := range g.routes {
		rs := RouteSnapshot{
			Requests: r.requests.Load(),
			ByClass:  map[string]uint64{},
			Latency:  r.latency.Snapshot(),
		}
		for c := 1; c <= 5; c++ {
			if n := r.classes[c].Load(); n > 0 {
				rs.ByClass[classNames[c]] = n
			}
		}
		if n := r.classes[0].Load(); n > 0 {
			rs.ByClass["other"] = n
		}
		s.Routes[name] = rs
	}
	return s
}

var classNames = [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}
