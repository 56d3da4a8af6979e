// Package obs is Backlog's zero-dependency observability layer: a metrics
// registry of callback counters and gauges (CounterFunc, GaugeFunc — read at
// snapshot time from values that already live elsewhere) and fixed-bucket
// latency histograms, an op-tracing hook with a built-in bounded slow-op
// log, Prometheus text-format rendering, and an optional HTTP debug
// endpoint.
//
// The package is built around two rules:
//
//   - The record path is lock-free: histogram observations are single
//     atomic adds, and counters and gauges cost the hot path nothing at all,
//     so instrumented hot paths (AddRef, Query, WAL appends) never serialize
//     behind the metrics layer.
//   - Disabled observability is free: *Histogram, the one handle type, is
//     nil-safe, and a nil *Registry returns nil handles and ignores
//     callbacks, so code instruments unconditionally — `h.Observe(d)` on a
//     nil histogram is a single branch, a few nanoseconds at most.
//     Paper-figure experiments run with observability off and stay
//     byte-identical.
//
// Snapshots (Registry.Snapshot) are deep copies: the returned structure
// never aliases live registry state, so a snapshot taken mid-load is stable
// no matter how much recording follows. Callbacks and histogram fields are
// read individually without a global lock, so a snapshot is not a perfect
// point-in-time cut across metrics — each individual value is, which is the
// usual Prometheus contract.
package obs

import (
	"fmt"
	"sort"
	"sync"
)

// funcMetric is a counter or gauge whose value is computed at snapshot
// time — the bridge for values that already live elsewhere (the engine's
// legacy Stats atomics, write-store tree sizes, view pin counts) so the hot
// path is not charged twice for the same event.
type funcMetric struct {
	name, help string
	counter    bool
	fn         func() float64
}

// Registry holds a named set of metrics. The zero value is not usable; use
// NewRegistry. A nil *Registry is the disabled registry: every
// registration method returns nil (a no-op handle) and Snapshot returns an
// empty snapshot.
type Registry struct {
	mu     sync.Mutex
	byName map[string]any
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]any{}}
}

// register installs m under name. Registering the same name again returns
// the existing handle when the kinds match (so independent subsystems can
// share a metric), replaces the callback for func-backed metrics (the
// newest registrant — e.g. the currently open engine — wins), and panics on
// a kind mismatch, which is always a programming error.
func (r *Registry) register(name string, m any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[name]; ok {
		switch prev := old.(type) {
		case *funcMetric:
			next, ok := m.(*funcMetric)
			if !ok || prev.counter != next.counter {
				panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
			}
			prev.fn = next.fn
			prev.help = next.help
			return prev
		case *Histogram:
			if _, ok := m.(*Histogram); !ok {
				panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
			}
			return prev
		}
	}
	r.byName[name] = m
	r.order = append(r.order, name)
	return m
}

// CounterFunc registers a counter whose value fn computes at snapshot
// time. fn must be safe for concurrent use and monotonic. Re-registering
// the name replaces the callback.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if r == nil {
		return
	}
	r.register(name, &funcMetric{name: name, help: help, counter: true,
		fn: func() float64 { return float64(fn()) }})
}

// GaugeFunc registers a gauge whose value fn computes at snapshot time.
// fn must be safe for concurrent use. Re-registering the name replaces the
// callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, &funcMetric{name: name, help: help, fn: fn})
}

// Histogram registers (or returns the existing) histogram with the given
// ascending bucket upper bounds (an implicit +Inf bucket is added). See
// LatencyBuckets and CountBuckets for the standard bounds.
func (r *Registry) Histogram(name, help, unit string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, newHistogram(name, help, unit, bounds)).(*Histogram)
}

// CounterSnapshot is one counter's state in a Snapshot.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Help  string `json:"help,omitempty"`
	Value uint64 `json:"value"`
}

// GaugeSnapshot is one gauge's state in a Snapshot.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Help  string  `json:"help,omitempty"`
	Value float64 `json:"value"`
}

// Snapshot is a point-in-time copy of every registered metric, in
// registration order within each kind. It aliases no registry state.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Counter returns the named counter's value and whether it exists.
func (s Snapshot) Counter(name string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge returns the named gauge's value and whether it exists.
func (s Snapshot) Gauge(name string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram's snapshot and whether it exists.
func (s Snapshot) Histogram(name string) (HistogramSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnapshot{}, false
}

// Snapshot captures every metric. Safe for concurrent use with recording;
// the result is a deep copy. A nil registry returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	metrics := make([]any, len(order))
	for i, name := range order {
		metrics[i] = r.byName[name]
	}
	r.mu.Unlock()

	var s Snapshot
	for _, m := range metrics {
		switch m := m.(type) {
		case *funcMetric:
			if m.counter {
				s.Counters = append(s.Counters, CounterSnapshot{Name: m.name, Help: m.help, Value: uint64(m.fn())})
			} else {
				s.Gauges = append(s.Gauges, GaugeSnapshot{Name: m.name, Help: m.help, Value: m.fn()})
			}
		case *Histogram:
			s.Histograms = append(s.Histograms, m.Snapshot())
		}
	}
	sort.SliceStable(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.SliceStable(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.SliceStable(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
