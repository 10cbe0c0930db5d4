package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the generic metrics layer behind the daemon's /metrics
// endpoint: a registry of counters and fixed-bucket latency histograms,
// each optionally split by labels, plus scrape-time gauge and counter
// funcs, exposed in the Prometheus text format so any scraper can
// aggregate daemons. Hot-path updates are lock-cheap: counters are single
// atomics, label-series lookup takes a read lock, and only series
// creation and histogram observation take a short exclusive lock.

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and lock-free.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (n must be >= 0 for the exposed series
// to stay monotonic; Add does not enforce it).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// DefLatencyBuckets are the default histogram upper bounds (seconds) for
// pipeline-phase latencies, spanning sub-millisecond schedule phases to
// multi-second compiles.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram accumulates a distribution into fixed cumulative buckets;
// quantiles are the scraper's job (histogram_quantile over _bucket).
// Safe for concurrent use.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; last is the +Inf bucket
	count  int64
	sum    float64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// snapshot returns the cumulative bucket counts, count and sum for
// exposition.
func (h *Histogram) snapshot() (cumulative []uint64, count int64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cumulative[i] = acc
	}
	return cumulative, h.count, h.sum
}

// metric kinds in exposition order of their TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one named metric with all its label series.
type family struct {
	name   string
	help   string
	typ    string
	labels []string  // label names; series values are positional
	bounds []float64 // histogram bucket bounds

	fn func() float64 // func-backed single-series family (nil otherwise)

	mu     sync.RWMutex
	series map[string]*series
}

type series struct {
	labelValues []string
	counter     *Counter
	hist        *Histogram
}

// Registry holds a process's metric families and renders them in the
// Prometheus text exposition format. Families are registered once (at
// construction of the owning component) and updated lock-cheaply from hot
// paths. The zero value is not usable; create with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{byName: make(map[string]*family)} }

func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", f.name))
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
}

// CounterVec declares a counter family split by labels; use With to reach
// one series. A label-less family is a vec with zero labels.
type CounterVec struct{ f *family }

// Counter registers a counter family. labels name the label dimensions;
// call With with matching positional values.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	f := &family{name: name, help: help, typ: typeCounter, labels: labels, series: make(map[string]*series)}
	r.register(f)
	return &CounterVec{f}
}

// With returns the counter for the given label values, creating it on
// first use. The number of values must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.lookup(values).counter
}

// HistogramVec declares a histogram family split by labels. bounds are
// the bucket upper bounds in ascending order (nil selects
// DefLatencyBuckets).
type HistogramVec struct{ f *family }

// Histogram registers a histogram family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	f := &family{name: name, help: help, typ: typeHistogram, labels: labels, bounds: bounds, series: make(map[string]*series)}
	r.register(f)
	return &HistogramVec{f}
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.lookup(values).hist
}

// GaugeFunc registers a gauge whose value is read at exposition time —
// how live state (queue depth, warm workers, cache population) is
// exported without a point-in-time snapshot going stale.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: typeGauge, fn: fn})
}

// CounterFunc registers a counter whose value is read at exposition time,
// for monotonic totals owned by another component (e.g. build-cache
// hits). fn must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: typeCounter, fn: fn})
}

// lookup finds or creates the series for the given label values.
func (f *family) lookup(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		s.counter = &Counter{}
	case typeHistogram:
		s.hist = newHistogram(f.bounds)
	}
	f.series[key] = s
	return s
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double-quote and newline.
func escapeLabel(v string) string {
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(v string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(v)
}

// formatValue renders a sample value. Integral floats print without an
// exponent or trailing zeros; +Inf prints the exposition spelling.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// labelBlock renders `{k1="v1",k2="v2"}` (empty string for no labels).
// extra appends one preformatted pair (the histogram le bound).
func labelBlock(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extra != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extra)
	}
	sb.WriteByte('}')
	return sb.String()
}

// WritePrometheus renders every family in registration order (series
// sorted within a family), in the text exposition format version 0.0.4.
// Families with no series yet still emit their HELP/TYPE header, so the
// scrapeable skeleton is stable from the first scrape — and golden
// testable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	families := append([]*family(nil), r.families...)
	r.mu.RUnlock()
	var sb strings.Builder
	for _, f := range families {
		fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		if f.fn != nil {
			fmt.Fprintf(&sb, "%s %s\n", f.name, formatValue(f.fn()))
			continue
		}
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make([]*series, len(keys))
		for i, k := range keys {
			ordered[i] = f.series[k]
		}
		f.mu.RUnlock()
		for _, s := range ordered {
			switch f.typ {
			case typeCounter:
				fmt.Fprintf(&sb, "%s%s %d\n", f.name, labelBlock(f.labels, s.labelValues, ""), s.counter.Value())
			case typeHistogram:
				cum, count, sum := s.hist.snapshot()
				for i, c := range cum {
					le := "+Inf"
					if i < len(f.bounds) {
						le = formatValue(f.bounds[i])
					}
					extra := `le="` + le + `"`
					fmt.Fprintf(&sb, "%s_bucket%s %d\n", f.name, labelBlock(f.labels, s.labelValues, extra), c)
				}
				fmt.Fprintf(&sb, "%s_sum%s %s\n", f.name, labelBlock(f.labels, s.labelValues, ""), formatValue(sum))
				fmt.Fprintf(&sb, "%s_count%s %d\n", f.name, labelBlock(f.labels, s.labelValues, ""), count)
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
