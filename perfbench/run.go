package main

import (
	"fmt"
	goruntime "runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/tuple"
)

// setupReps is how many unused assemblies a run times before each one that
// carries load; setup metrics are the median over all of them. Spreading
// them over the run, rather than timing them back to back at its start,
// keeps one moment of host contention from setting the figure.
const setupReps = 8

// floods is how many unpaced floods a run drives, each on a fresh assembly
// after the paced load points; the flood metrics are medians over them.
// One flood's CPU time varies by about a tenth from the next, so a run
// needs a dozen for a steady median. They come last because a process's
// first floods cost up to a fifth more CPU per tuple while its heap was
// still growing, which a long-running server pays once.
const floods = 12

// sliceUs cuts the paced phases into slices for the tail metrics: a p99 is
// the median over slices of each slice's p99, so one burst of host noise
// moves one slice, not the figure.
const sliceUs = 1_000_000

// heapEveryUs is how often the live heap is read during the paced phases.
const heapEveryUs = 10_000

// guardUs is excluded from latency sampling at both ends of a paced phase,
// so results straddling a load change are not attributed to either point.
const guardUs = 200_000

// run is everything one measured run leaves behind: the paced segment
// (lo and hi load points) and the floods, each on its own assembly.
type run struct {
	traced bool
	setups []setupTimes // of every assembly
	paced  *segment
	floods []*segment
}

// segment is one assembly driven with one set of inputs, drained and
// checked against the reference.
type segment struct {
	in     *inputs
	starts [nPaced + 1]int64
	rec    *recorder
	feeds  []*feeder
	ingest *timedIngest // traced runs only

	upSeconds float64 // first unpaced send to graph drained
	upCPU     float64 // process CPU seconds from the first send to the drain
	calS      float64 // the calibration kernel's CPU seconds around the segment (calib.go)
	upTuples  int
	allocB    uint64         // bytes allocated from the first send to the drain
	heap      [nPaced]uint64 // the engine's typical live heap at each paced phase (see drive)
	heapPeak  [nPaced]uint64 // and its peak
	pacedGCs  uint64         // collections over the paced phases
	deltaUs   int64          // widest skew bound δ of the streams once drained

	snap     runtime.Snapshot
	conn     client.Stats
	net      []metrics.Metric
	spanEv   uint64
	spanDrop uint64
	uptimeS  float64

	sendErrs  int
	attempted int
	v         verdict
}

func (g *segment) failures() int { return g.v.failures() + g.sendErrs }

func (r *run) segments() []*segment { return append([]*segment{r.paced}, r.floods...) }

func (r *run) failures() int {
	n := 0
	for _, g := range r.segments() {
		n += g.failures()
	}
	return n
}

func (r *run) attempted() int {
	n := 0
	for _, g := range r.segments() {
		n += g.attempted
	}
	return n
}

// lateness pools the feeders' generator lateness per slice.
func (g *segment) lateness() [][]int32 {
	out := make([][]int32, len(g.feeds[0].late))
	for _, f := range g.feeds {
		for k, l := range f.late {
			out[k] = append(out[k], l...)
		}
	}
	return out
}

// measure drives the paced load points through one assembly and each flood
// through another, and checks every segment against the reference.
func measure(w *workload, seed uint64, seconds int, traced bool) (*run, error) {
	r := &run{traced: traced}
	phaseUs := [nPaced]int64{int64(seconds) * 500_000, int64(seconds) * 500_000}
	var err error
	if r.paced, err = r.drive(w, seed, w.generate(seed, phaseUs), phaseUs); err != nil {
		return nil, err
	}
	for k := 0; k < floods; k++ {
		g, err := r.drive(w, seed, w.flood(), [nPaced]int64{})
		if err != nil {
			return nil, err
		}
		r.floods = append(r.floods, g)
	}
	return r, nil
}

// drive times setupReps unused assemblies, then assembles a system, sends
// in through it, drains it and checks the results.
func (r *run) drive(w *workload, seed uint64, in *inputs, phaseUs [nPaced]int64) (*segment, error) {
	goruntime.GC()
	for i := 0; i < setupReps; i++ {
		s, err := assemble(w, func(*tuple.Tuple, tuple.Time) {}, nil)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, s.setup)
		if err := s.finish(); err != nil {
			return nil, err
		}
	}
	// Everything the benchmark itself keeps during the load — inputs,
	// result fingerprint, latency and generator logs — exists before the
	// heap baseline is read.
	g := &segment{in: in, rec: newRecorder(r.traced, in, phaseUs)}
	g.rec.guard = guardUs
	nSlices := (phaseUs[0] + phaseUs[1] + sliceUs - 1) / sliceUs
	for i := range w.streams {
		f := &feeder{w: w, seed: seed, idx: i, traced: r.traced}
		f.late = make([][]int32, nSlices)
		for k := range f.late {
			f.late[k] = make([]int32, 0, sliceUs/tickUs+16)
		}
		if r.traced {
			f.ticks = make([]tick, 0, (phaseUs[0]+phaseUs[1])/tickUs+int64(in.unpaced[i]/unpacedBatch)+16)
		}
		g.feeds = append(g.feeds, f)
		g.upTuples += in.unpaced[i]
	}
	// Memory: the live heap (as of the latest collection) over the paced
	// phases, less this baseline read before the engine is assembled, so
	// the figure is what the engine holds; and the bytes allocated over a
	// flood, where batching is at its fullest and per-tuple cost is not
	// diluted by idle-time work.
	mem := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	var reads, peaks [nPaced][]uint64 // per phase, every reading and each slice's highest
	for p := range peaks {
		reads[p] = make([]uint64, 0, phaseUs[p]/heapEveryUs+16)
		peaks[p] = make([]uint64, (phaseUs[p]+sliceUs-1)/sliceUs)
	}
	// Twice: the first collection moves what earlier segments left in
	// sync.Pools to their victim caches, the second frees it.
	goruntime.GC()
	goruntime.GC()
	rtmetrics.Read(mem)
	heapBase := mem[1].Value.Uint64()

	var wrap func(*system) server.Ingestor
	if r.traced {
		wrap = func(s *system) server.Ingestor {
			g.ingest = newTimedIngest(s)
			return g.ingest
		}
	}
	sys, err := assemble(w, g.rec.onRow, wrap)
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, sys.setup)
	calBefore := calibrate()

	lock := newLockstep(in)
	for i, f := range g.feeds {
		f.str, f.conn, f.clock, f.lock = sys.strs[i], sys.conns[i], sys.clock, lock
	}
	goruntime.GC()

	// The load starts on a whole tick, so window ends, which fall on whole
	// ticks, meet the generator's ticks at the same point in every run.
	// Left to the clock, that offset moved join-agg's latency by a tenth
	// from run to run.
	t0 := (int64(sys.clock())+50_000)/tickUs*tickUs + tickUs
	g.starts = [nPaced + 1]int64{t0, t0 + phaseUs[0], t0 + phaseUs[0] + phaseUs[1]}
	for i, s := range g.starts {
		g.rec.starts[i].Store(s)
	}
	// A flood's assembly has no paced phases, so its feeders send the
	// unpaced tuples at once: its CPU and allocation are counted from here.
	rtmetrics.Read(mem)
	alloc0, gc0, cpu0 := mem[0].Value.Uint64(), mem[2].Value.Uint64(), cpuSeconds()
	var wg sync.WaitGroup
	for _, f := range g.feeds {
		wg.Add(1)
		go func(f *feeder) {
			defer wg.Done()
			f.run(in, g.starts)
		}(f)
	}

	for {
		time.Sleep(heapEveryUs * time.Microsecond)
		now := int64(sys.clock())
		if now >= g.starts[nPaced] {
			break
		}
		p := 0
		if now >= g.starts[1] {
			p = 1
		}
		if now < g.starts[0] || len(peaks[p]) == 0 {
			continue
		}
		rtmetrics.Read(mem)
		heap := mem[1].Value.Uint64() - min(heapBase, mem[1].Value.Uint64())
		k := min(int((now-g.starts[p])/sliceUs), len(peaks[p])-1)
		peaks[p][k] = max(peaks[p][k], heap)
		reads[p] = append(reads[p], heap)
	}
	g.pacedGCs = mem[2].Value.Uint64() - gc0
	// A phase's typical heap is the median of all its readings. Its peak is
	// the median of its slices' highest readings, so one burst of host noise
	// that delays a collection sets one slice, not the figure.
	for p := range peaks {
		g.heap[p] = uint64(pct(reads[p], 50))
		g.heapPeak[p] = uint64(pct(peaks[p], 50))
	}
	wg.Wait()
	if err := sys.wait(); err != nil {
		sys.close()
		return nil, err
	}
	rtmetrics.Read(mem)
	g.allocB = mem[0].Value.Uint64() - alloc0
	g.upCPU = cpuSeconds() - cpu0
	upEnd := int64(sys.clock())
	upStart := upEnd
	for _, f := range g.feeds {
		if f.upStart >= 0 {
			upStart = min(upStart, f.upStart)
		}
	}
	g.upSeconds = float64(upEnd-upStart) / 1e6
	g.calS = (calBefore + calibrate()) / 2
	if g.calS <= 0 {
		sys.close()
		return nil, fmt.Errorf("the calibration kernel measured no CPU time")
	}

	g.snap = sys.re.Snapshot()
	g.uptimeS = float64(g.snap.Uptime) / 1e6
	for _, c := range sys.conns {
		st := c.Stats()
		g.conn.TuplesSent += st.TuplesSent
		g.conn.BatchesSent += st.BatchesSent
		g.conn.CreditStalls += st.CreditStalls
	}
	g.net = sys.srv.Registry().Snapshot()
	g.spanEv, g.spanDrop = sys.spans.Total(), sys.spans.Dropped()
	for _, src := range sys.srcs {
		g.deltaUs = max(g.deltaUs, int64(src.Delta()))
	}
	sys.close()

	for i, f := range g.feeds {
		g.sendErrs += f.sendErrs
		g.attempted += in.total(i)
	}
	g.v, err = check(w, seed, in, g.starts, g.rec, g.snap.LateTuples)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

type metricSpec struct{ name, unit string }

// endToEndSpecs are the metrics a user of the engine sees, measured with
// tracing off. BENCHMARK.json lists the same names.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"cpu_us_per_tuple", "us"},
	{"lat_p50_ms.lo", "ms"},
	{"lat_p50_ms.hi", "ms"},
	{"alloc_b_per_tuple", "B"},
	{"heap_mb.lo", "MB"},
}

// endToEnd derives every user-visible figure of a run: the end-to-end
// metrics plus the wall-clock throughput, the tails and the hi point's
// heap, which perLayer reports unbounded because host contention moves
// them between runs by more than any useful bound.
func endToEnd(r *run) map[string]float64 {
	var rates, cpus, raws, cals, allocs []float64
	for _, g := range r.floods {
		n := float64(max(g.upTuples, 1))
		rates = append(rates, n/g.upSeconds)
		raws = append(raws, g.upCPU*1e6/n)
		cpus = append(cpus, g.upCPU*1e6/n*calibRefS/g.calS)
		cals = append(cals, g.calS*1e3)
		allocs = append(allocs, float64(g.allocB)/n)
	}
	p := r.paced
	return map[string]float64{
		"setup_s":              float64(median(r.setups, setupTimes.total)) / 1e9,
		"cpu_us_per_tuple":     medianF(cpus),
		"cpu_us_per_tuple_raw": medianF(raws),
		"host.calib_ms":        medianF(cals),
		"peak_tps":             medianF(rates),
		"lat_p50_ms.lo":        pct(pool(p.rec.lat[0]), 50) / 1e3,
		"lat_p99_ms.lo":        slicedPct(p.rec.lat[0], 99) / 1e3,
		"lat_p50_ms.hi":        pct(pool(p.rec.lat[1]), 50) / 1e3,
		"lat_p99_ms.hi":        slicedPct(p.rec.lat[1], 99) / 1e3,
		"gen_late_p99_ms":      slicedPct(p.lateness(), 99) / 1e3,
		"alloc_b_per_tuple":    medianF(allocs),
		"heap_mb.lo":           float64(p.heap[0]) / (1 << 20),
		"heap_peak_mb":         float64(max(p.heapPeak[0], p.heapPeak[1])) / (1 << 20),
	}
}

// pct is the nearest-rank percentile of xs (0 when empty); xs is sorted in
// place.
func pct[T int32 | int64 | uint64 | float64](xs []T, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(p/100*float64(len(xs))+0.5) - 1
	return float64(xs[min(max(i, 0), len(xs)-1)])
}

// medianF is the median of xs (0 when empty).
func medianF(xs []float64) float64 { return pct(xs, 50) }

// median is the median of f over xs.
func median[E any](xs []E, f func(E) int64) int64 {
	vs := make([]int64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return int64(pct(vs, 50))
}

// pool concatenates per-slice samples.
func pool(parts [][]int32) []int32 {
	var out []int32
	for _, s := range parts {
		out = append(out, s...)
	}
	return out
}

// minSlice is the fewest samples a slice needs to count towards a sliced
// percentile.
const minSlice = 100

// slicedPct is the median over slices of each slice's p-th percentile,
// counting slices with at least minSlice samples (all samples pooled when
// no slice has that many).
func slicedPct(parts [][]int32, p float64) float64 {
	var ps []float64
	for _, s := range parts {
		if len(s) >= minSlice {
			ps = append(ps, pct(s, p))
		}
	}
	if len(ps) == 0 {
		return pct(pool(parts), p)
	}
	return medianF(ps)
}
