package sim

import (
	"math"
	"math/bits"
	"sort"
)

// Counter is a monotonically increasing metric. The nil receiver is a
// valid no-op counter, so components can hold a *Counter field that is
// only wired up when metrics are wanted and increment it unconditionally
// on hot paths.
type Counter struct{ n uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.n += n
	}
}

// Value returns the current count. Nil counters read zero.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}

// histBuckets is one bucket per possible bits.Len64 result: bucket i holds
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i - 1]
// (bucket 0 holds exactly v == 0). Power-of-two buckets keep Observe to a
// single instruction-ish cost and merge across jobs by element-wise
// addition.
const histBuckets = 65

// Histogram accumulates a distribution of uint64 observations into
// power-of-two buckets. As with Counter, the nil receiver is a valid
// no-op.
type Histogram struct {
	count   uint64
	sum     uint64
	buckets [histBuckets]uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// BucketLe returns the inclusive upper bound of bucket i.
func BucketLe(i int) uint64 {
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Quantile returns an upper bound on the q-quantile of the observed
// distribution: the inclusive upper bound of the power-of-two bucket
// holding the ceil(q·count)-th smallest observation. q is clamped to
// [0, 1]; q=0 bounds the minimum, q=1 the maximum. A histogram with no
// observations reports 0.
//
// Error bound: an observation v lands in the bucket with upper bound
// Le = 2^bits.Len64(v) - 1, so the true quantile t and the reported
// bound r satisfy t <= r <= max(2t-1, t) — the report is never below
// the true quantile and overshoots by strictly less than one power of
// two. Observations of 0 and 1 occupy their own single-value buckets
// and are reported exactly, so an idle-heavy latency distribution's
// p50 reads exactly 0 rather than being dragged up a bucket.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= rank {
			return BucketLe(i)
		}
	}
	return math.MaxUint64 // unreachable: buckets sum to count
}

// Mean returns the arithmetic mean of the observations (exact — computed
// from the running sum, not the buckets). Empty and nil histograms read 0.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Metrics is a registry of named counters, gauges, and histograms owned by
// one simulation environment. Components register their instruments at
// construction time; Snapshot assembles a stable, name-sorted view.
//
// Two registration styles are supported. Counter/Histogram hand out a live
// instrument the component increments directly. Gauge registers a sampling
// function over state the component already maintains (e.g. the TLB's
// existing hit counter), so instrumenting such components costs nothing on
// their hot paths.
//
// All methods are nil-safe: a nil *Metrics registers nothing and hands out
// nil (no-op) instruments.
type Metrics struct {
	counters map[string]*Counter
	gauges   map[string]func() uint64
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]func() uint64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Repeated calls with the same name return the same counter.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge registers a sampling function under name. The function is invoked
// only when a Snapshot is taken. Registering the same name twice replaces
// the sampler.
func (m *Metrics) Gauge(name string, fn func() uint64) {
	if m == nil || fn == nil {
		return
	}
	m.gauges[name] = fn
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	h, ok := m.hists[name]
	if !ok {
		h = &Histogram{}
		m.hists[name] = h
	}
	return h
}

// Sample is one named counter value in a snapshot.
type Sample struct {
	Name  string
	Value uint64
}

// Bucket is one non-empty histogram bucket: Count observations were <= Le
// (and greater than the previous bucket's Le).
type Bucket struct {
	Le    uint64
	Count uint64
}

// HistogramSample is one named histogram in a snapshot. Buckets lists only
// non-empty buckets in ascending Le order.
type HistogramSample struct {
	Name    string
	Count   uint64
	Sum     uint64
	Buckets []Bucket
}

// Snapshot is a point-in-time view of a Metrics registry with stable
// (name-sorted) ordering, suitable for deterministic serialization and for
// commutative merging across scheduler jobs.
type Snapshot struct {
	Counters   []Sample
	Histograms []HistogramSample
}

// Counter returns the value of the named counter in the snapshot, or zero
// if absent.
func (s Snapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Snapshot samples every registered instrument. Gauges are invoked here and
// nowhere else, so gauge-style instrumentation is free until observed.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	var s Snapshot
	s.Counters = make([]Sample, 0, len(m.counters)+len(m.gauges))
	for name, c := range m.counters {
		s.Counters = append(s.Counters, Sample{Name: name, Value: c.Value()})
	}
	for name, fn := range m.gauges {
		s.Counters = append(s.Counters, Sample{Name: name, Value: fn()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	s.Histograms = make([]HistogramSample, 0, len(m.hists))
	for name, h := range m.hists {
		hs := HistogramSample{Name: name, Count: h.count, Sum: h.sum}
		for i, n := range h.buckets {
			if n > 0 {
				hs.Buckets = append(hs.Buckets, Bucket{Le: BucketLe(i), Count: n})
			}
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Report is everything one environment observed: the final metrics
// snapshot plus the recorded trace. It is the unit of observability a
// scheduler job hands back for aggregation.
type Report struct {
	Metrics Snapshot
	Events  []Event
	Dropped int
}

// ReportSource is anything that can produce a Report (an Env, or a system
// wrapping one).
type ReportSource interface {
	Report() Report
}

// EngineSource is a ReportSource that can additionally expose the
// run-ahead engine's bookkeeping. The stats ride the Observer side channel
// rather than the Report because the Report is part of the byte-identical
// artifact contract — a fast run's Report must not differ from a
// reference run's.
type EngineSource interface {
	EngineStats() EngineStats
}

// Observer asks a workload to record observability data and deliver it
// when the run completes. A nil *Observer disables everything at zero
// cost: Cap reads 0 (so traces stay disabled) and Collect is a no-op that
// never builds a Report.
type Observer struct {
	// TraceCap is the event-trace capacity the workload should configure.
	// Zero leaves tracing off; metrics are still reported.
	TraceCap int
	// OnReport receives the run's Report. It may be called from scheduler
	// worker goroutines, so it must be safe for concurrent use.
	OnReport func(Report)
	// OnEngine receives the event engine's statistics when the source
	// exposes them (benchmarks use this to report windows per simulated
	// instruction; see EngineSource). Called even when run-ahead never
	// armed — Enabled is false there.
	OnEngine func(EngineStats)
}

// Cap returns the requested trace capacity. Nil observers request zero.
func (o *Observer) Cap() int {
	if o == nil {
		return 0
	}
	return o.TraceCap
}

// Collect builds src's Report and delivers it. The Report is only built
// when there is a consumer, keeping the disabled path free.
func (o *Observer) Collect(src ReportSource) {
	if o == nil || src == nil {
		return
	}
	if o.OnEngine != nil {
		if sp, ok := src.(EngineSource); ok {
			o.OnEngine(sp.EngineStats())
		}
	}
	if o.OnReport != nil {
		o.OnReport(src.Report())
	}
}
