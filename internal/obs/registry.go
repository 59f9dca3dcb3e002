// Package obs is the reproduction's dependency-free observability layer:
// a metrics registry of atomic counters, gauges, and fixed-bucket latency
// histograms with a Prometheus text exposition, plus lightweight span
// tracing for sampled dispatch calls. Every hot-path package (match,
// roadnet, index, sim, server) registers its instruments here under the
// naming scheme mtshare_<pkg>_<name>, so one scrape of GET /v1/metrics
// (or one Snapshot call) sees the whole pipeline.
//
// Instruments are cheap enough for per-dispatch use: a counter update is
// one atomic add, a histogram observation is a bounds scan plus two
// atomic updates. Registries are independent — a System, Server, or test
// builds its own so counters never bleed across instances.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named instruments. All methods are safe for concurrent
// use; Counter/Gauge/Histogram return the existing instrument when the
// name is already registered, so independent packages can share a name.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// labels, when non-empty, decorates every name registered through this
	// handle as name{labels} — a label set in the Prometheus sense. root
	// points at the registry owning the maps; nil means this handle is the
	// root itself. Labeled views share the root's instruments, so one
	// Snapshot or scrape sees every label set's series side by side.
	labels string
	root   *Registry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// base resolves the registry owning the instrument maps.
func (r *Registry) base() *Registry {
	if r.root != nil {
		return r.root
	}
	return r
}

// decorate applies the handle's label set to an instrument name.
func (r *Registry) decorate(name string) string {
	if r.labels == "" {
		return name
	}
	return name + "{" + r.labels + "}"
}

// Labeled returns a view of the registry that registers every instrument
// under name{labels} instead of name — e.g. Labeled(`route="advance"`)
// turns mtshare_server_http_seconds into
// mtshare_server_http_seconds{route="advance"}. The view shares the
// underlying registry: Snapshot and WritePrometheus on either handle see
// all series. Labels compose; labelling a labelled view appends to its
// label set. labels must be a well-formed Prometheus label list
// (k="v",...) — the registry does not parse it.
func (r *Registry) Labeled(labels string) *Registry {
	combined := labels
	if r.labels != "" {
		combined = r.labels + "," + labels
	}
	return &Registry{labels: combined, root: r.base()}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	name = r.decorate(name)
	r = r.base()
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	name = r.decorate(name)
	r = r.base()
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the latency histogram registered under name with the
// default latency buckets, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, nil)
}

// HistogramWith returns the histogram registered under name, creating it
// with the given ascending upper bounds on first use (nil means
// DefLatencyBuckets). Bounds are fixed at creation; a later call with
// different bounds returns the existing histogram unchanged.
func (r *Registry) HistogramWith(name string, bounds []float64) *Histogram {
	name = r.decorate(name)
	r = r.base()
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (compare-and-swap loop; gauges are off the hot path).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefLatencyBuckets are the default histogram bounds in seconds: roughly
// exponential from 1 µs to 10 s, sized for dispatch-stage latencies.
func DefLatencyBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// Histogram is a fixed-bucket histogram of float64 observations
// (latencies in seconds by convention). Observations are lock-free.
type Histogram struct {
	bounds []float64 // ascending upper bounds; implicit +Inf overflow
	counts []atomic.Int64
	sum    Gauge
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets()
	} else {
		bounds = append([]float64(nil), bounds...)
		sort.Float64s(bounds)
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the seconds elapsed since t0 and returns them.
func (h *Histogram) ObserveSince(t0 time.Time) float64 {
	d := time.Since(t0).Seconds()
	h.Observe(d)
	return d
}

// Snapshot returns a consistent point-in-time view. Count is derived from
// the bucket reads themselves, so Count always equals the sum of Buckets
// even while observations race with the snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	s.Sum = h.sum.Value()
	return s
}

// HistogramSnapshot is a point-in-time histogram state.
type HistogramSnapshot struct {
	// Bounds are the ascending upper bounds; Buckets has one extra final
	// entry counting observations above the last bound (the +Inf bucket).
	Bounds  []float64
	Buckets []int64
	Count   int64
	Sum     float64
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the owning bucket, the way Prometheus histogram_quantile does.
// It returns 0 for an empty histogram; values in the overflow bucket
// report the last finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) { // overflow bucket: clamp to last bound
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if n == 0 {
			return hi
		}
		inBucket := rank - float64(cum-n)
		return lo + (hi-lo)*inBucket/float64(n)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Mean returns the mean observation, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// RestoreCounters adds the given values onto the registry's counters,
// registering any that do not exist yet. Keys are fully decorated series
// names (labels included) exactly as Snapshot returns them; because the
// root handle decorates names as-is, a later Labeled view that registers
// the same series finds and shares the restored instrument. Used by the
// durability layer to re-seed deterministic counter families from a
// snapshot — values are deltas on freshly built (zero-valued)
// instruments, so restore must run before any dispatch activity.
func (r *Registry) RestoreCounters(counters map[string]int64) {
	root := r.base()
	for name, v := range counters {
		root.Counter(name).Add(v)
	}
}

// Snapshot is a full-registry point-in-time view.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot captures every instrument's current value. On a labelled view
// it captures the whole underlying registry, labelled series included.
func (r *Registry) Snapshot() Snapshot {
	r = r.base()
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
