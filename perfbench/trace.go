package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/client"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// The traced run records spans from the benchmark's own files only, at four
// boundaries: the generator's due time, the client's send and flush, the
// engine-ingest call the server makes (through timedIngest), and the sink
// callback. Spans of one tick share a trace id: the id column of the tick's
// first tuple, which every tuple carries. A span's self time is its
// duration minus the part of it its children cover.

// ingestRec is one engine-ingest call as the server made it.
type ingestRec struct {
	first      int64 // id of the first tuple
	n          int32
	maxTs      int64
	start, end int64
}

// timedIngest wraps the runtime engine the server backend feeds. Each
// stream is fed by one session goroutine, so each log has one writer; the
// logs are read after the engine drained.
type timedIngest struct {
	re    *runtime.Engine
	clock func() tuple.Time
	idx   map[*ops.Source]int
	logs  [][]ingestRec
}

func newTimedIngest(s *system) *timedIngest {
	t := &timedIngest{re: s.re, clock: s.clock, idx: map[*ops.Source]int{}, logs: make([][]ingestRec, len(s.srcs))}
	for i, src := range s.srcs {
		t.idx[src] = i
	}
	return t
}

func (t *timedIngest) Ingest(src *ops.Source, raw *tuple.Tuple) {
	if raw.Kind != tuple.Data {
		t.re.Ingest(src, raw)
		return
	}
	rec := ingestRec{first: raw.Vals[0].AsInt(), n: 1, maxTs: int64(raw.Ts), start: int64(t.clock())}
	t.re.Ingest(src, raw)
	rec.end = int64(t.clock())
	i := t.idx[src]
	t.logs[i] = append(t.logs[i], rec)
}

func (t *timedIngest) IngestBatch(src *ops.Source, raws []*tuple.Tuple) {
	if len(raws) == 0 {
		return
	}
	// Read the batch before handing it over: the tuples belong to the
	// engine once IngestBatch returns.
	rec := ingestRec{first: raws[0].Vals[0].AsInt(), n: int32(len(raws)), maxTs: int64(raws[len(raws)-1].Ts), start: int64(t.clock())}
	t.re.IngestBatch(src, raws)
	rec.end = int64(t.clock())
	i := t.idx[src]
	t.logs[i] = append(t.logs[i], rec)
}

func (t *timedIngest) CloseStream(src *ops.Source) { t.re.CloseStream(src) }

// span is one traced interval on the run clock (µs).
type span struct {
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
	Parent string `json:"parent,omitempty"`
}

// perLayerSpecs are the traced run's metrics. BENCHMARK.json lists the same
// names; README.md says which end-to-end metric each should move.
var perLayerSpecs = []metricSpec{
	{"peak_tps", "1/s"},
	{"cpu_us_per_tuple_raw", "us"},
	{"host.calib_ms", "ms"},
	{"lat_p99_ms.lo", "ms"},
	{"lat_p99_ms.hi", "ms"},
	{"gen_late_p99_ms", "ms"},
	{"heap_peak_mb", "MB"},
	{"setup.compile_ms", "ms"},
	{"setup.build_ms", "ms"},
	{"setup.listen_ms", "ms"},
	{"setup.bind_ms", "ms"},
	{"client.send_us_per_tuple", "us"},
	{"client.tuples_per_frame", "count"},
	{"client.credit_stalls", "count"},
	{"wire.encode_ns_per_tuple", "ns"},
	{"wire.decode_ns_per_tuple", "ns"},
	{"wire.bytes_per_tuple", "B"},
	{"server.hop_us_p50", "us"},
	{"server.bytes_in_per_tuple", "B"},
	{"server.demand_frames", "count"},
	{"server.delta_ms", "ms"},
	{"runtime.ingest_us_per_tuple", "us"},
	{"runtime.residence_ms_p50", "ms"},
	{"runtime.idle_frac.iwp", "ratio"},
	{"runtime.ets_per_s", "1/s"},
	{"runtime.demand_sent", "count"},
	{"runtime.wm_lag_ms_p50.iwp.0", "ms"},
	{"runtime.wm_lag_ms_p50.iwp.1", "ms"},
	{"runtime.batching_factor", "count"},
	{"runtime.punct_share", "ratio"},
	{"runtime.queue_hwm.iwp", "count"},
	{"runtime.queue_hwm.max", "count"},
	{"runtime.late_tuples", "count"},
	{"ops.out_per_in.iwp", "ratio"},
	{"ops.out_per_in.agg", "ratio"},
	{"ops.out_per_in.filter", "ratio"},
	{"obs.span_events_per_s", "1/s"},
	{"obs.span_dropped_frac", "ratio"},
	{"exec.replay_tps", "1/s"},
	{"trace.tick_self_us_p50", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.overhead_lat_pct", "%"},
}

// perLayer derives the per-layer metrics from the traced run tr; base is
// the untraced run of the same invocation, which also supplies the tail
// figures. Operator and timestamp-management figures come from the paced
// segment; data-plane costs and counters are summed over every segment.
func perLayer(w *workload, tr, base *run) map[string]float64 {
	p := tr.paced
	m := map[string]float64{
		"setup.compile_ms":  float64(median(tr.setups, func(t setupTimes) int64 { return t.compile })) / 1e6,
		"setup.build_ms":    float64(median(tr.setups, func(t setupTimes) int64 { return t.build })) / 1e6,
		"setup.listen_ms":   float64(median(tr.setups, func(t setupTimes) int64 { return t.listen })) / 1e6,
		"setup.bind_ms":     float64(median(tr.setups, func(t setupTimes) int64 { return t.bind })) / 1e6,
		"runtime.ets_per_s": ratio(float64(p.snap.ETSGenerated), p.uptimeS),
		"server.delta_ms":   float64(p.deltaUs) / 1e3,
		"exec.replay_tps":   p.v.replayTps,
	}

	var conn client.Stats
	var tuplesSent, batchesSent, punctOut, out, late, spanEv, spanDrop uint64
	var uptime float64
	var hwm int
	net := map[string]float64{}
	var spans []span
	var st spanStats
	for _, g := range tr.segments() {
		conn.TuplesSent += g.conn.TuplesSent
		conn.BatchesSent += g.conn.BatchesSent
		conn.CreditStalls += g.conn.CreditStalls
		tuplesSent += g.snap.TuplesSent
		batchesSent += g.snap.BatchesSent
		late += g.snap.LateTuples
		for _, n := range g.snap.Nodes {
			punctOut += n.PunctOut
			out += n.TuplesOut
			hwm = max(hwm, n.QueueHWM)
		}
		spanEv += g.spanEv
		spanDrop += g.spanDrop
		uptime += g.uptimeS
		for _, x := range g.net {
			net[x.Name] += x.Value
		}
		sp, gs := g.spans(w)
		spans = append(spans, sp...)
		st.add(gs)
	}
	m["client.tuples_per_frame"] = ratio(float64(conn.TuplesSent), float64(conn.BatchesSent))
	m["client.credit_stalls"] = float64(conn.CreditStalls)
	m["client.send_us_per_tuple"] = ratio(float64(st.sendUs), float64(st.sendN))
	m["server.bytes_in_per_tuple"] = ratio(net["sm_net_bytes_in_total"], net["sm_net_tuples_in_total"])
	m["server.demand_frames"] = net["sm_net_demand_sent_total"]
	m["server.hop_us_p50"] = pct(st.hops, 50)
	m["runtime.ingest_us_per_tuple"] = ratio(float64(st.ingUs), float64(st.ingN))
	m["runtime.residence_ms_p50"] = pct(st.residence, 50) / 1e3
	m["runtime.batching_factor"] = ratio(float64(tuplesSent), float64(batchesSent))
	m["runtime.punct_share"] = ratio(float64(punctOut), float64(out))
	m["runtime.queue_hwm.max"] = float64(hwm)
	m["runtime.late_tuples"] = float64(late)
	m["obs.span_events_per_s"] = ratio(float64(spanEv), uptime)
	m["obs.span_dropped_frac"] = ratio(float64(spanDrop), float64(spanEv))
	m["trace.tick_self_us_p50"] = pct(st.tickSelf, 50)
	if err := writeSpans(w, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
	}

	var demand uint64
	for _, n := range p.snap.Nodes {
		demand += n.DemandSent
	}
	m["runtime.demand_sent"] = float64(demand)
	outPerIn := func(name string) float64 {
		n := p.snap.Node(name)
		if n == nil {
			return 0
		}
		return ratio(float64(n.TuplesOut-n.PunctOut), float64(n.TuplesIn-n.PunctIn))
	}
	m["ops.out_per_in.iwp"] = outPerIn(w.iwp)
	m["ops.out_per_in.agg"] = outPerIn(w.agg)
	m["ops.out_per_in.filter"] = outPerIn(w.filter)
	for _, k := range []string{"runtime.idle_frac.iwp", "runtime.queue_hwm.iwp", "runtime.wm_lag_ms_p50.iwp.0", "runtime.wm_lag_ms_p50.iwp.1"} {
		m[k] = 0
	}
	if n := p.snap.Node(w.iwp); n != nil {
		m["runtime.idle_frac.iwp"] = n.IdleFraction
		m["runtime.queue_hwm.iwp"] = float64(n.QueueHWM)
		for i, a := range n.Arcs {
			if i < 2 {
				m[fmt.Sprintf("runtime.wm_lag_ms_p50.iwp.%d", i)] = float64(a.Lag.Percentile(50)) / 1e3
			}
		}
	}

	m["wire.encode_ns_per_tuple"], m["wire.decode_ns_per_tuple"], m["wire.bytes_per_tuple"] = codec(w, tr.segments())

	be, te := endToEnd(base), endToEnd(tr)
	for _, k := range []string{"peak_tps", "cpu_us_per_tuple_raw", "host.calib_ms", "lat_p99_ms.lo", "lat_p99_ms.hi", "gen_late_p99_ms", "heap_peak_mb"} {
		m[k] = be[k]
	}
	m["trace.overhead_pct"] = 100 * (te["cpu_us_per_tuple"] - be["cpu_us_per_tuple"]) / be["cpu_us_per_tuple"]
	m["trace.overhead_lat_pct"] = 100 * (te["lat_p50_ms.lo"] - be["lat_p50_ms.lo"]) / be["lat_p50_ms.lo"]
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanStats are the span-derived per-layer figures: time in the client's
// send and in the engine-ingest call with the tuples each covered, and
// samples of the server hop, residence and tick self time.
type spanStats struct {
	sendUs, sendN, ingUs, ingN int64
	hops, residence, tickSelf  []int64
}

func (s *spanStats) add(o spanStats) {
	s.sendUs += o.sendUs
	s.sendN += o.sendN
	s.ingUs += o.ingUs
	s.ingN += o.ingN
	s.hops = append(s.hops, o.hops...)
	s.residence = append(s.residence, o.residence...)
	s.tickSelf = append(s.tickSelf, o.tickSelf...)
}

// spans rebuilds the traced run's span trees — one per tick, rooted at a
// "tick" span from the first tuple's due time to the last span under it —
// and derives the span statistics. Only ticks of the paced phases are
// kept as spans; the unpaced flood is summarised by the per-tuple costs.
func (g *segment) spans(w *workload) ([]span, spanStats) {
	var st spanStats
	kids := map[int64][]span{} // a paced tick's child spans, by trace id
	paced := func(t int64) bool { return t >= g.starts[0] && t < g.starts[nPaced] }
	tickOf := func(stream int, seq int64) int {
		ticks := g.feeds[stream].ticks
		return sort.Search(len(ticks), func(i int) bool { return int64(ticks[i].first) > seq }) - 1
	}
	for s, f := range g.feeds {
		for _, tk := range f.ticks {
			st.sendUs += tk.done - tk.send
			st.sendN += int64(tk.n)
			if paced(tk.due) {
				id := tupleID(s, tk.first)
				kids[id] = []span{
					{Trace: id, Name: "gen", Start: tk.due, End: tk.send, Parent: "tick"},
					{Trace: id, Name: "client", Start: tk.send, End: tk.done, Parent: "tick"},
				}
			}
		}
	}
	logs := g.ingest.logs
	for s, log := range logs {
		for _, rec := range log {
			st.ingUs += rec.end - rec.start
			st.ingN += int64(rec.n)
			seq := rec.first & (1<<idBits - 1)
			i := tickOf(s, seq)
			if i < 0 {
				continue
			}
			tk := g.feeds[s].ticks[i]
			if uint64(seq) == tk.first && tk.n <= unpacedBatch && paced(tk.due) {
				st.hops = append(st.hops, rec.start-tk.done)
			}
			if id := tupleID(s, tk.first); kids[id] != nil {
				kids[id] = append(kids[id], span{Trace: id, Name: "ingest", Start: rec.start, End: rec.end, Parent: "tick"})
			}
		}
	}

	// A result's trigger is the ingest call after which the engine could
	// emit it: the call carrying the tuple itself for pass-through plans;
	// for an aggregate, the latest of the streams' first calls reaching
	// past the window end.
	trigger := func(res sinkRec) (stream int, rec ingestRec, ok bool) {
		if w.agg == "" {
			s := int(res.id >> idBits)
			if s < 0 || s >= len(logs) {
				return 0, rec, false
			}
			log := logs[s]
			i := sort.Search(len(log), func(i int) bool { return log[i].first > res.id }) - 1
			if i < 0 {
				return 0, rec, false
			}
			return s, log[i], true
		}
		for s, log := range logs {
			i := sort.Search(len(log), func(i int) bool { return log[i].maxTs >= res.ts })
			if i == len(log) {
				return 0, rec, false
			}
			if !ok || log[i].end > rec.end {
				stream, rec, ok = s, log[i], true
			}
		}
		return stream, rec, ok
	}
	for _, res := range g.rec.sinks {
		if !paced(res.ts) {
			continue
		}
		s, rec, ok := trigger(res)
		if !ok {
			continue
		}
		st.residence = append(st.residence, res.now-rec.end)
		i := tickOf(s, rec.first&(1<<idBits-1))
		if i < 0 {
			continue
		}
		if id := tupleID(s, g.feeds[s].ticks[i].first); kids[id] != nil {
			kids[id] = append(kids[id], span{Trace: id, Name: "sink", Start: rec.end, End: res.now, Parent: "tick"})
		}
	}

	ids := make([]int64, 0, len(kids))
	for id := range kids {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var out []span
	for _, id := range ids {
		ks := kids[id]
		root := span{Trace: id, Name: "tick", Start: ks[0].Start, End: ks[0].End}
		for _, k := range ks {
			root.End = max(root.End, k.End)
		}
		st.tickSelf = append(st.tickSelf, selfTime(root, ks))
		out = append(out, root)
		out = append(out, ks...)
	}
	return out, st
}

// selfTime is the part of root's interval none of its children cover.
func selfTime(root span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, root.Start), min(k.End, root.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, end := int64(0), root.Start
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		covered += x[1] - max(x[0], end)
		end = x[1]
	}
	return root.End - root.Start - covered
}

// writeSpans writes the spans as JSON lines under .bench_build/trace.
func writeSpans(w *workload, spans []span) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, w.name+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// codecCap bounds the tuples the codec timing replays.
const codecCap = 50_000

// codec times the wire codec on the run's own batches: every tick the
// generator sent (up to codecCap tuples), framed the way the client frames
// it, encoded with wire.Writer.WriteFrame and decoded with
// wire.Reader.Next. It returns ns per tuple for each direction and bytes
// per tuple on the wire.
func codec(w *workload, segs []*segment) (encNs, decNs, bytesPer float64) {
	var frames []wire.Frame
	total := 0
	for _, g := range segs {
		for s, f := range g.feeds {
			for _, tk := range f.ticks {
				for off := int32(0); off < tk.n && total < codecCap; off += unpacedBatch {
					n := min(tk.n-off, unpacedBatch)
					batch := make([]*tuple.Tuple, n)
					for i := range batch {
						seq := tk.first + uint64(off) + uint64(i)
						t := tuple.NewData(tuple.Time(w.at(g.in, s, int(seq), g.starts)), make([]tuple.Value, len(w.cols))...)
						w.fill(f.seed, s, seq, t.Vals)
						batch[i] = t
					}
					if n == 1 {
						frames = append(frames, wire.Tuple{ID: uint32(s + 1), T: batch[0]})
					} else {
						frames = append(frames, wire.Tuples{ID: uint32(s + 1), Batch: batch})
					}
					total += int(n)
				}
			}
		}
	}
	if total == 0 {
		return 0, 0, 0
	}
	var buf bytes.Buffer
	wr := wire.NewWriter(&buf)
	start := time.Now()
	for _, f := range frames {
		if err := wr.WriteFrame(f); err != nil {
			return 0, 0, 0
		}
	}
	if err := wr.Flush(); err != nil {
		return 0, 0, 0
	}
	encNs = float64(time.Since(start).Nanoseconds()) / float64(total)
	bytesPer = float64(wr.Bytes()) / float64(total)

	rd := wire.NewReader(bytes.NewReader(buf.Bytes()))
	start = time.Now()
	for {
		if _, err := rd.Next(); err != nil {
			if !errors.Is(err, io.EOF) {
				return encNs, 0, bytesPer
			}
			break
		}
	}
	decNs = float64(time.Since(start).Nanoseconds()) / float64(total)
	return encNs, decNs, bytesPer
}
