// Live observability: the Registry is a process-local set of named
// instruments — monotonic counters, gauges, gauge functions, and
// ring-buffered sample reservoirs — that engine goroutines update lock-free
// while scrapers (the streamd HTTP endpoint, the -stats printer, dotviz
// overlays) snapshot concurrently without stopping anything.
//
// Naming follows the Prometheus convention: a metric name is a family plus
// an optional label set, e.g.
//
//	sm_node_tuples_out_total{node="u",id="2"}
//
// The registry treats the whole string as the unique key; the exposition
// writers split off the family so TYPE lines group correctly.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter64 is a lock-free monotonic counter.
type Counter64 struct{ v atomic.Uint64 }

// Add increments the counter by d.
func (c *Counter64) Add(d uint64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter64) Inc() { c.v.Add(1) }

// Load reads the current value.
func (c *Counter64) Load() uint64 { return c.v.Load() }

// RateWindow remembers a counter's value at the previous observation so
// periodic pollers (the adaptive controller's tick) can read per-interval
// deltas without diffing whole snapshots by hand. One RateWindow tracks one
// counter; it is not safe for concurrent use — each poller owns its own.
type RateWindow struct {
	last  uint64
	valid bool
}

// Rate returns the counter's increase since the previous call with the same
// window. The first call primes the window and returns 0, so a controller's
// first tick never sees the counter's whole lifetime as one burst. Counters
// are monotonic; if the counter was restarted below the remembered value the
// window re-primes and returns 0 rather than underflowing.
func (c *Counter64) Rate(w *RateWindow) uint64 {
	cur := c.v.Load()
	prev, valid := w.last, w.valid
	w.last, w.valid = cur, true
	if !valid || cur < prev {
		return 0
	}
	return cur - prev
}

// Gauge64 is a lock-free gauge (a value that can go up and down).
type Gauge64 struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge64) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge64) Add(d int64) { g.v.Add(d) }

// Load reads the current value.
func (g *Gauge64) Load() int64 { return g.v.Load() }

// Raise sets the gauge to v if v exceeds the current value — the high-water
// mark primitive. Safe under concurrent Raise calls.
func (g *Gauge64) Raise(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Reservoir retains the most recent capacity samples in a lock-free ring:
// writers claim a slot with one atomic add and store with one atomic store,
// so a node goroutine can observe per-tuple latencies without coordination.
// A snapshot may see a torn window under heavy concurrent writes (each slot
// is individually atomic, the window is not) — acceptable for percentile
// estimation, which is what reservoirs are for.
type Reservoir struct {
	slots []atomic.Int64
	pos   atomic.Uint64 // total observations ever
}

// NewReservoir returns a reservoir retaining the last capacity samples.
func NewReservoir(capacity int) *Reservoir {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Reservoir{slots: make([]atomic.Int64, capacity)}
}

// Observe records one sample.
func (r *Reservoir) Observe(v int64) {
	i := r.pos.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(v)
}

// Count reports the total number of observations ever made.
func (r *Reservoir) Count() uint64 { return r.pos.Load() }

// Snapshot copies the retained window. The result is sorted, ready for
// percentile queries and merging.
func (r *Reservoir) Snapshot() ReservoirSnapshot {
	n := r.pos.Load()
	keep := uint64(len(r.slots))
	if n < keep {
		keep = n
	}
	s := ReservoirSnapshot{Count: n, Samples: make([]int64, keep)}
	for i := range s.Samples {
		s.Samples[i] = r.slots[i].Load()
	}
	sort.Slice(s.Samples, func(i, j int) bool { return s.Samples[i] < s.Samples[j] })
	return s
}

// ReservoirSnapshot is a point-in-time copy of a reservoir's window.
// Samples are sorted ascending.
type ReservoirSnapshot struct {
	Count   uint64  `json:"count"`
	Samples []int64 `json:"-"`
}

// Merge combines two snapshots (e.g. the same instrument across shards or
// engines) into one: counts add, windows concatenate re-sorted.
func (s ReservoirSnapshot) Merge(o ReservoirSnapshot) ReservoirSnapshot {
	out := ReservoirSnapshot{
		Count:   s.Count + o.Count,
		Samples: make([]int64, 0, len(s.Samples)+len(o.Samples)),
	}
	out.Samples = append(append(out.Samples, s.Samples...), o.Samples...)
	sort.Slice(out.Samples, func(i, j int) bool { return out.Samples[i] < out.Samples[j] })
	return out
}

// Percentile reports the p-th percentile (0 < p ≤ 100) of the retained
// window by nearest rank, or 0 with no samples.
func (s ReservoirSnapshot) Percentile(p float64) int64 {
	if len(s.Samples) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(s.Samples))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.Samples) {
		rank = len(s.Samples) - 1
	}
	return s.Samples[rank]
}

// Mean reports the average of the retained window, or 0 with no samples.
func (s ReservoirSnapshot) Mean() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Samples {
		sum += float64(v)
	}
	return sum / float64(len(s.Samples))
}

// Max reports the largest retained sample, or 0 with no samples.
func (s ReservoirSnapshot) Max() int64 {
	if len(s.Samples) == 0 {
		return 0
	}
	return s.Samples[len(s.Samples)-1]
}

// MetricKind classifies a registered instrument.
type MetricKind uint8

const (
	KindCounter MetricKind = iota
	KindGauge
	KindReservoir
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "reservoir"
	}
}

type entry struct {
	name string
	kind MetricKind
	c    *Counter64
	g    *Gauge64
	fn   func() int64
	r    *Reservoir
}

// Registry is a named set of instruments. Registration takes a lock;
// updates through the returned instruments are lock-free; Snapshot and the
// writers may run concurrently with both.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// register installs e under its name, or returns the existing entry of the
// same kind (registration is idempotent so graph rebuilds can share a
// registry). A name collision across kinds panics: it is a programming
// error that would silently misreport.
func (r *Registry) register(e *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.entries[e.name]; ok {
		if old.kind != e.kind {
			panic(fmt.Sprintf("metrics: %q registered as both %v and %v", e.name, old.kind, e.kind))
		}
		return old
	}
	r.entries[e.name] = e
	return e
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter64 {
	return r.register(&entry{name: name, kind: KindCounter, c: &Counter64{}}).c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge64 {
	return r.register(&entry{name: name, kind: KindGauge, g: &Gauge64{}}).g
}

// GaugeFunc registers a gauge whose value is computed at snapshot time. fn
// must be safe to call from any goroutine at any moment (read atomics,
// channel lengths — never engine-private state).
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.register(&entry{name: name, kind: KindGauge, fn: fn})
}

// CounterFunc registers a counter whose value is read at snapshot time from
// an existing monotonic source (e.g. an engine-owned atomic). The same
// safety rule as GaugeFunc applies.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.register(&entry{name: name, kind: KindCounter, fn: fn})
}

// Reservoir returns the named reservoir, creating it with the given window
// capacity on first use.
func (r *Registry) Reservoir(name string, capacity int) *Reservoir {
	e := r.register(&entry{name: name, kind: KindReservoir, r: NewReservoir(capacity)})
	return e.r
}

// Metric is one instrument's value in a registry snapshot.
type Metric struct {
	Name  string
	Kind  MetricKind
	Value float64            // counter / gauge value
	Res   *ReservoirSnapshot // set for reservoirs
}

// Snapshot reads every instrument once and returns the values sorted by
// name.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	es := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		es = append(es, e)
	}
	r.mu.Unlock()
	sort.Slice(es, func(i, j int) bool { return es[i].name < es[j].name })
	out := make([]Metric, 0, len(es))
	for _, e := range es {
		m := Metric{Name: e.name, Kind: e.kind}
		switch {
		case e.c != nil:
			m.Value = float64(e.c.Load())
		case e.fn != nil:
			m.Value = float64(e.fn())
		case e.g != nil:
			m.Value = float64(e.g.Load())
		case e.r != nil:
			s := e.r.Snapshot()
			m.Res = &s
		}
		out = append(out, m)
	}
	return out
}

// SplitName separates a metric name into its family and label portion:
// `f{a="b"}` → ("f", `a="b"`); a plain name has an empty label portion.
func SplitName(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// LabelValue extracts one label's value from the label portion returned by
// SplitName, or "" when absent. Label values must not contain escaped
// quotes (engine-generated names never do).
func LabelValue(labels, key string) string {
	for _, part := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(part, "=")
		if ok && k == key {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// quantileName splices a quantile label into a metric name.
func quantileName(name, q string) string {
	family, labels := SplitName(name)
	if labels == "" {
		return fmt.Sprintf("%s{quantile=%q}", family, q)
	}
	return fmt.Sprintf("%s{%s,quantile=%q}", family, labels, q)
}

// suffixName appends a suffix to the family, keeping labels: f{l} + "_count"
// → f_count{l}.
func suffixName(name, suffix string) string {
	family, labels := SplitName(name)
	if labels == "" {
		return family + suffix
	}
	return fmt.Sprintf("%s%s{%s}", family, suffix, labels)
}

// WriteProm renders the registry in the Prometheus text exposition format:
// counters and gauges as-is, reservoirs as summaries with p50/p90/p99
// quantiles plus _count.
func (r *Registry) WriteProm(w io.Writer) error {
	snap := r.Snapshot()
	seenType := make(map[string]bool)
	for _, m := range snap {
		family, _ := SplitName(m.Name)
		if !seenType[family] {
			seenType[family] = true
			t := "counter"
			switch m.Kind {
			case KindGauge:
				t = "gauge"
			case KindReservoir:
				t = "summary"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, t); err != nil {
				return err
			}
		}
		if m.Res != nil {
			for _, q := range []struct {
				label string
				p     float64
			}{{"0.5", 50}, {"0.9", 90}, {"0.99", 99}} {
				if _, err := fmt.Fprintf(w, "%s %d\n", quantileName(m.Name, q.label), m.Res.Percentile(q.p)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", suffixName(m.Name, "_count"), m.Res.Count); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", m.Name, formatValue(m.Value)); err != nil {
			return err
		}
	}
	return nil
}

// formatValue renders integral values without an exponent or trailing
// zeros; non-integral values keep full float formatting.
// sanitizeValue maps NaN and ±Inf to 0: a GaugeFunc dividing by a
// not-yet-incremented counter must not break the whole exposition (JSON
// rejects NaN outright, and one NaN sample poisons Prometheus rate math).
func sanitizeValue(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func formatValue(v float64) string {
	v = sanitizeValue(v)
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteText renders the snapshot as sorted "name value" lines — the
// human-readable form streamd's -stats prints (documented in README).
// Reservoirs expand to _count/_mean/_p50/_p99/_max lines.
func (r *Registry) WriteText(w io.Writer) error {
	for _, m := range r.Snapshot() {
		if m.Res != nil {
			lines := []struct {
				suffix string
				value  string
			}{
				{"_count", fmt.Sprintf("%d", m.Res.Count)},
				{"_mean", fmt.Sprintf("%.1f", m.Res.Mean())},
				{"_p50", fmt.Sprintf("%d", m.Res.Percentile(50))},
				{"_p99", fmt.Sprintf("%d", m.Res.Percentile(99))},
				{"_max", fmt.Sprintf("%d", m.Res.Max())},
			}
			for _, l := range lines {
				if _, err := fmt.Fprintf(w, "%s %s\n", suffixName(m.Name, l.suffix), l.value); err != nil {
					return err
				}
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", m.Name, formatValue(m.Value)); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as one flat JSON object, name → value
// (reservoirs become {count, mean, p50, p99, max} objects) — the /vars
// document dotviz -overlay consumes.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string]any)
	for _, m := range r.Snapshot() {
		if m.Res != nil {
			out[m.Name] = map[string]any{
				"count": m.Res.Count,
				"mean":  m.Res.Mean(),
				"p50":   m.Res.Percentile(50),
				"p99":   m.Res.Percentile(99),
				"max":   m.Res.Max(),
			}
			continue
		}
		out[m.Name] = sanitizeValue(m.Value)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
