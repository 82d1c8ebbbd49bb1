package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/tuple"
)

// rowHash identifies a result row by its timestamp and values.
func rowHash(t *tuple.Tuple) uint64 {
	h := mix(uint64(t.Ts))
	for _, v := range t.Vals {
		h = mix(h ^ v.Hash())
	}
	return h
}

// fpBits sets the buckets of a result fingerprint: 1<<fpBits of them.
const fpBits = 14

// fingerprint is a multiset of result rows in fixed space: rows are spread
// over buckets by their hash, and each bucket keeps its row count and the
// sum of its rows' (rehashed) hashes. Two multisets with equal fingerprints
// are equal but with probability ~2^-64, and the check keeps no per-row
// log, so nothing it holds grows while the load runs.
type fingerprint struct {
	n    [1 << fpBits]uint32
	sum  [1 << fpBits]uint64
	rows int
}

func (f *fingerprint) add(h uint64) {
	b := h >> (64 - fpBits)
	f.n[b]++
	f.sum[b] += mix(h ^ 0xf1d9)
	f.rows++
}

// diff counts the rows of ref absent from live (missing) and of live absent
// from ref (extra), bucket by bucket: a count difference is that many rows
// missing or extra, and equal counts with unequal sums are at least one
// wrong row, counted as one missing and one extra. The counts are exact
// while mismatched rows fall in distinct buckets, and a lower bound
// otherwise; they are zero only if the multisets are equal.
func diff(ref, live *fingerprint) (missing, extra int) {
	for b := range ref.n {
		switch r, l := int(ref.n[b]), int(live.n[b]); {
		case r > l:
			missing += r - l
		case l > r:
			extra += l - r
		case ref.sum[b] != live.sum[b]:
			missing++
			extra++
		}
	}
	return missing, extra
}

// recorder is the measured run's sink state. onRow runs on the engine's sink
// goroutine only; everything it writes is read after the engine drains.
type recorder struct {
	// starts holds the phase start instants (lo, hi, unpaced) on the run
	// clock; results are attributed to the phase their timestamp falls in.
	// They are MaxInt64 until the load is scheduled.
	starts [nPaced + 1]atomic.Int64
	guard  int64 // µs excluded at each end of a paced phase

	rows     fingerprint
	lastTs   tuple.Time
	disorder int
	lat      [nPaced][][]int32 // result latency µs, per paced phase and slice

	traced bool
	sinks  []sinkRec
}

// sinkRec is one result as the traced run saw it.
type sinkRec struct {
	now, ts int64
	id      int64 // column 0 of the result (a tuple id when the plan keeps it)
}

// newRecorder makes the sink state for a segment carrying in. Its logs are
// sized up front, so they do not grow while the load runs and count towards
// the live heap measured then: each plan emits at most one row per input
// tuple, so a slice of a paced phase gets about as many latency samples as
// it has inputs at most (an aggregate row falls in the slice of its window
// end).
func newRecorder(traced bool, in *inputs, phaseUs [nPaced]int64) *recorder {
	r := &recorder{traced: traced, lastTs: tuple.MinTime}
	for i := range r.starts {
		r.starts[i].Store(math.MaxInt64)
	}
	var perSlice [nPaced][]int
	for p, d := range phaseUs {
		perSlice[p] = make([]int, (d+sliceUs-1)/sliceUs)
	}
	paced := 0
	for s := range in.paced {
		for p, offs := range in.paced[s] {
			paced += len(offs)
			for _, o := range offs {
				perSlice[p][min(int(int64(o)/sliceUs), len(perSlice[p])-1)]++
			}
		}
	}
	for p, counts := range perSlice {
		r.lat[p] = make([][]int32, len(counts))
		for k, n := range counts {
			r.lat[p][k] = make([]int32, 0, n+n/8+64)
		}
	}
	if traced {
		r.sinks = make([]sinkRec, 0, paced)
	}
	return r
}

func (r *recorder) onRow(t *tuple.Tuple, now tuple.Time) {
	r.rows.add(rowHash(t))
	if t.Ts < r.lastTs {
		r.disorder++
	}
	r.lastTs = t.Ts
	ts := int64(t.Ts)
	for p := 0; p < nPaced; p++ {
		if start := r.starts[p].Load(); ts >= start+r.guard && ts < r.starts[p+1].Load()-r.guard {
			k := min(int((ts-start)/sliceUs), len(r.lat[p])-1)
			r.lat[p][k] = append(r.lat[p][k], int32(min(int64(now)-ts, math.MaxInt32)))
			break
		}
	}
	if r.traced && ts >= r.starts[0].Load() && ts < r.starts[nPaced].Load() {
		rec := sinkRec{now: int64(now), ts: ts}
		if len(t.Vals) > 0 {
			rec.id = t.Vals[0].AsInt()
		}
		r.sinks = append(r.sinks, rec)
	}
}

// verdict is the outcome of comparing a live run with the reference.
type verdict struct {
	missing, extra int // result rows absent from / surplus to the reference
	disorder       int // live sink timestamps that went backwards
	refDisorder    int // the same, in the reference (a defect of the oracle)
	late           uint64
	rows, refRows  int
	replayTps      float64
}

func (v verdict) failures() int {
	return v.missing + v.extra + v.disorder + v.refDisorder + int(v.late)
}

// reference replays the tuples a run sent, in timestamp order, through the
// single-threaded DFS engine (the paper's simulator), and returns its
// results' fingerprint. starts are the run's phase start instants.
func reference(w *workload, seed uint64, in *inputs, starts [nPaced + 1]int64) (rows *fingerprint, disorder int, tps float64, err error) {
	rows = new(fingerprint)
	e := core.NewEngine()
	if _, err := e.ExecuteScript(w.ddl, nil); err != nil {
		return nil, 0, 0, err
	}
	last := tuple.MinTime
	if _, err := e.Execute(w.query, func(t *tuple.Tuple, _ tuple.Time) {
		rows.add(rowHash(t))
		if t.Ts < last {
			disorder++
		}
		last = t.Ts
	}); err != nil {
		return nil, 0, 0, err
	}
	srcs := make([]*ops.Source, len(w.streams))
	for i, st := range w.streams {
		if srcs[i], err = e.Source(st.name); err != nil {
			return nil, 0, 0, err
		}
	}
	clock := tuple.Time(0)
	ex, err := e.Build(core.OnDemandETS, func() tuple.Time { return clock })
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	next := make([]int, len(srcs))
	head := make([]int64, len(srcs))
	for i := range srcs {
		head[i] = w.at(in, i, 0, starts)
	}
	total := 0
	for {
		s := -1
		for i := range srcs {
			if next[i] < in.total(i) && (s < 0 || head[i] < head[s]) {
				s = i
			}
		}
		if s < 0 {
			break
		}
		ts := tuple.Time(head[s])
		t := tuple.GetData(ts, len(w.cols))
		w.fill(seed, s, uint64(next[s]), t.Vals)
		next[s]++
		head[s] = w.at(in, s, next[s], starts)
		total++
		if ts > clock {
			clock = ts
		}
		srcs[s].Ingest(t, clock)
		ex.Run(1 << 20)
	}
	for _, src := range srcs {
		src.Offer(tuple.EOS())
	}
	for ex.Run(1<<20) == 1<<20 {
	}
	if d := time.Since(start).Seconds(); d > 0 {
		tps = float64(total) / d
	}
	return rows, disorder, tps, nil
}

// check compares the live run's results with the reference replay.
func check(w *workload, seed uint64, in *inputs, starts [nPaced + 1]int64, rec *recorder, late uint64) (verdict, error) {
	ref, refDisorder, tps, err := reference(w, seed, in, starts)
	if err != nil {
		return verdict{}, fmt.Errorf("reference: %w", err)
	}
	v := verdict{disorder: rec.disorder, refDisorder: refDisorder, late: late, rows: rec.rows.rows, refRows: ref.rows, replayTps: tps}
	v.missing, v.extra = diff(ref, &rec.rows)
	return v, nil
}
