// Package metrics provides the measurement instruments used by the
// experiment harness: latency accumulators with percentiles,
// and per-operator idle-waiting time accounting (the paper reports average
// output latency, peak total queue size, and the percentage of time the
// union operator spends idle-waiting).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/tuple"
)

// Latency accumulates latency samples in virtual time.
type Latency struct {
	samples []tuple.Time
	sum     float64
	max     tuple.Time
	min     tuple.Time
	// unsorted marks that samples has been appended to since the last
	// Percentile call. Sample order is otherwise meaningless (sum/min/max
	// are tracked incrementally), so Percentile sorts in place once and
	// reuses the order until the next Observe instead of copying and
	// re-sorting per call.
	unsorted bool
}

// NewLatency returns an empty accumulator.
func NewLatency() *Latency {
	return &Latency{min: tuple.MaxTime, max: tuple.MinTime}
}

// Reset discards all samples (e.g. at the end of a warm-up period).
func (l *Latency) Reset() {
	l.samples = l.samples[:0]
	l.sum = 0
	l.min = tuple.MaxTime
	l.max = tuple.MinTime
	l.unsorted = false
}

// Observe records one latency sample.
func (l *Latency) Observe(d tuple.Time) {
	// Appending a sample ≥ the current tail keeps a sorted slice sorted —
	// the common case for monotone latency sweeps — so only flag otherwise.
	if n := len(l.samples); n > 0 && d < l.samples[n-1] {
		l.unsorted = true
	}
	l.samples = append(l.samples, d)
	l.sum += float64(d)
	if d > l.max {
		l.max = d
	}
	if d < l.min {
		l.min = d
	}
}

// Count reports the number of samples.
func (l *Latency) Count() int { return len(l.samples) }

// Mean reports the average latency, or 0 with no samples.
func (l *Latency) Mean() tuple.Time {
	if len(l.samples) == 0 {
		return 0
	}
	return tuple.Time(l.sum / float64(len(l.samples)))
}

// Max reports the largest sample, or 0 with no samples.
func (l *Latency) Max() tuple.Time {
	if len(l.samples) == 0 {
		return 0
	}
	return l.max
}

// Min reports the smallest sample, or 0 with no samples.
func (l *Latency) Min() tuple.Time {
	if len(l.samples) == 0 {
		return 0
	}
	return l.min
}

// Percentile reports the p-th percentile (0 < p ≤ 100) by nearest-rank, or
// 0 with no samples. The samples are sorted in place at most once per batch
// of Observe calls: repeated Percentile queries between observations reuse
// the cached order (the experiment harness asks for p50/p95/p99 of the same
// accumulator back to back).
func (l *Latency) Percentile(p float64) tuple.Time {
	if len(l.samples) == 0 {
		return 0
	}
	if l.unsorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.unsorted = false
	}
	s := l.samples
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// IdleAccount tracks, for one operator, how much virtual time it has spent
// idle-waiting: blocked by timestamp uncertainty while holding at least one
// input tuple it could otherwise process. This matches the paper's §6
// measurement ("the percentage of time the union operator spends in an
// idle-waiting state").
type IdleAccount struct {
	idle  tuple.Time
	total tuple.Time
}

// AddIdle charges d of idle-waiting time.
func (a *IdleAccount) AddIdle(d tuple.Time) { a.idle += d }

// AddTotal charges d of observed (wall) time.
func (a *IdleAccount) AddTotal(d tuple.Time) { a.total += d }

// Idle reports the accumulated idle-waiting time.
func (a *IdleAccount) Idle() tuple.Time { return a.idle }

// Total reports the accumulated observation time.
func (a *IdleAccount) Total() tuple.Time { return a.total }

// Fraction reports idle/total in [0,1], or 0 when nothing was observed.
func (a *IdleAccount) Fraction() float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.idle) / float64(a.total)
}

// Reset zeroes the account (e.g. at the end of a warm-up period).
func (a *IdleAccount) Reset() { a.idle, a.total = 0, 0 }

// PerShard is a fixed-size vector of atomic counters, one per shard of a
// partitioned operator. Writers (splitter goroutines, shard goroutines) add
// lock-free on their own index; readers snapshot at any time without
// stopping the engine. The zero-allocation path matters: a splitter accounts
// one Add per routed tuple.
type PerShard struct {
	counts []atomic.Uint64
}

// NewPerShard returns a counter vector for n shards.
func NewPerShard(n int) *PerShard {
	return &PerShard{counts: make([]atomic.Uint64, n)}
}

// Len reports the number of shards.
func (p *PerShard) Len() int { return len(p.counts) }

// Add adds d to shard s's counter.
func (p *PerShard) Add(s int, d uint64) { p.counts[s].Add(d) }

// Get reads shard s's counter.
func (p *PerShard) Get(s int) uint64 { return p.counts[s].Load() }

// Total sums all shard counters.
func (p *PerShard) Total() uint64 {
	var t uint64
	for i := range p.counts {
		t += p.counts[i].Load()
	}
	return t
}

// Snapshot copies the current per-shard values.
func (p *PerShard) Snapshot() []uint64 {
	out := make([]uint64, len(p.counts))
	for i := range p.counts {
		out[i] = p.counts[i].Load()
	}
	return out
}

// AddTo accumulates the current values into dst (growing it as needed) and
// returns dst — the rollup primitive: summing every splitter's PerShard gives
// the per-shard tuple totals of the whole partition.
func (p *PerShard) AddTo(dst []uint64) []uint64 {
	for len(dst) < len(p.counts) {
		dst = append(dst, 0)
	}
	for i := range p.counts {
		dst[i] += p.counts[i].Load()
	}
	return dst
}

func (p *PerShard) String() string {
	var b strings.Builder
	b.WriteString("shards[")
	for i := range p.counts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", p.counts[i].Load())
	}
	b.WriteByte(']')
	return b.String()
}
