package main

import (
	"encoding/json"
	"fmt"
	"os"
	goruntime "runtime"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/partition"
	rt "repro/internal/runtime"
	"repro/internal/tuple"
	"repro/internal/window"
)

// The adaptive benchmark measures the closed metrics loop on a workload
// built to punish static configuration: the shardbench union+join graph at
// 4 shards, fed keys whose hash buckets ALL map canonically to shard 0 —
// and whose hot bucket set drifts between phases, so even a one-shot
// hand-placed assignment goes stale. Three contestants run the identical
// tuple sequence:
//
//   - static-default: canonical bucket→shard table, default batch size.
//     Every tuple lands on shard 0; the nested-loop join probe scans the
//     whole window there while three shards idle.
//   - the static sweep ("hand-tuned"): the best of canonical/oracle
//     assignment × default/4× batch size, where the oracle table is
//     partition.Balance over the full run's per-bucket load — the best
//     single table anyone could have picked in advance.
//   - adaptive: starts exactly like static-default, with the controller
//     attached. It must discover the skew from the splitters' bucket
//     meters, re-balance behind punctuation barriers, and chase the drift.
//
// Keys are unique (one matching twin per left tuple), so join_rows == half
// the tuple count is a hard correctness gate for every contestant, and the
// engine's late counter at the sink doubles as the ordering gate: a
// reconfiguration that leaked a tuple across a bound would count there.
//
// A second, probe-order benchmark drives the 3-way multiway join with one
// never-matching input hidden behind two expensive ones: natural probe
// order enumerates the expensive cross-product before the cheap kill;
// the controller learns per-input fanout and probes cheapest-first.

const (
	adaptShards     = 4
	adaptPhases     = 3
	adaptPunctEvery = 512 // seqs between explicit punctuation rounds

	adaptProbeSpan  = 64 // multiway-join window span (virtual units)
	adaptProbeSteps = 20000

	// adaptInflight caps un-delivered seqs in flight, pacing ingestion to
	// the join's drain rate so the splitters' routing frontier (and hence
	// every retarget barrier) stays just ahead of processing.
	adaptInflight = 4096
)

type adaptiveResult struct {
	Name         string  `json:"name"`
	Tuples       uint64  `json:"tuples"`
	Seconds      float64 `json:"seconds"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
	JoinRows     uint64  `json:"join_rows"`
	LatencyP50Us float64 `json:"latency_p50_us"`
	LatencyP95Us float64 `json:"latency_p95_us"`
	// LateAtSink counts deliveries below the sink's input watermark — a
	// tuple leaked across a punctuation bound by a mid-stream swap would
	// land here. Inversions ≤ late is the ordering acceptance; this
	// workload feeds nothing late, so the budget is zero.
	LateAtSink   uint64   `json:"late_at_sink"`
	BatchRetunes uint64   `json:"batch_retunes,omitempty"`
	ShardRetunes uint64   `json:"shard_retunes,omitempty"`
	ShardApplies uint64   `json:"shard_applies,omitempty"`
	NodeRetunes  uint64   `json:"node_retunes_applied,omitempty"`
	ShardTuples  []uint64 `json:"shard_tuples,omitempty"`
}

type probeReorderResult struct {
	Steps        int     `json:"steps"`
	NaturalTps   float64 `json:"natural_tuples_per_sec"`
	AdaptiveTps  float64 `json:"adaptive_tuples_per_sec"`
	SpeedupX     float64 `json:"speedup_x"`
	ProbeRetunes uint64  `json:"probe_retunes"`
	RowsNatural  uint64  `json:"rows_natural"`
	RowsAdaptive uint64  `json:"rows_adaptive"`
}

type adaptiveReport struct {
	Workload   string           `json:"workload"`
	Tuples     int              `json:"tuples_per_config"`
	Phases     int              `json:"phases"`
	Shards     int              `json:"shards"`
	WindowSpan int              `json:"window_span"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Date       string           `json:"date"`
	Results    []adaptiveResult `json:"results"`
	// BestStatic names the static sweep's winner (the "hand-tuned" bar).
	BestStatic string `json:"best_static"`
	// AdaptiveVsDefaultX is adaptive vs static-default throughput
	// (acceptance: ≥ 1.3).
	AdaptiveVsDefaultX float64 `json:"adaptive_vs_default_x"`
	// AdaptiveVsBestStatic is adaptive vs the sweep winner (acceptance:
	// ≥ 0.85 — the controller pays its observation rent but must stay
	// within 15% of the best hand-tuned static configuration).
	AdaptiveVsBestStatic float64            `json:"adaptive_vs_best_static"`
	ProbeReorder         probeReorderResult `json:"probe_reorder"`
	Violations           []string           `json:"violations"`
}

// adaptKeys builds the drifting-skew key sequence: per unique keys, each
// hashing to a bucket that canonically maps to shard 0, partitioned into
// phases that use disjoint bucket families. Also returns the full-run
// per-bucket load (left + right twin per key) the oracle table is built
// from.
func adaptKeys(per, shards, phases int) (keys []int64, loads []uint64) {
	keys = make([]int64, per)
	loads = make([]uint64, ops.SplitBuckets)
	perPhase := (per + phases - 1) / phases
	next := int64(0)
	for p := 0; p < phases; p++ {
		lo, hi := p*perPhase, (p+1)*perPhase
		if hi > per {
			hi = per
		}
		for i := lo; i < hi; {
			k := next
			next++
			b := int(tuple.Int(k).Hash() % ops.SplitBuckets)
			if b%shards != 0 || (b/shards)%phases != p {
				continue
			}
			keys[i] = k
			loads[b] += 2
			i++
		}
	}
	return keys, loads
}

// runAdaptiveConfig pushes the key sequence through the sharded union+join
// workload under one configuration. assign, when non-nil, is installed on
// every splitter before the first tuple (barrier 0: it governs the whole
// run). adaptive attaches and runs the controller.
func runAdaptiveConfig(name string, keys []int64, batch int, assign []int32, adaptive bool) adaptiveResult {
	per := len(keys)
	var rows atomic.Uint64
	lat := metrics.NewReservoir(4096)
	g, srcs := buildShardGraph(tuple.External, func(t *tuple.Tuple, now tuple.Time) {
		rows.Add(1)
		lat.Observe(int64(now - t.Arrived)) // sink goroutine only
	})
	opts := rt.Options{Shards: adaptShards, Recycle: true, BatchSize: batch}
	if adaptive {
		opts.Adaptive = &rt.AdaptiveOptions{
			Interval: 2 * time.Millisecond,
			// The driver punctuates every adaptPunctEvery seqs, so half a
			// round is the tightest barrier lead a punctuation is still
			// guaranteed to cross promptly. The default (one tick's
			// event-time advance) would balloon during fast drain bursts
			// and push every swap thousands of seqs into the future.
			BarrierLead: adaptPunctEvery / 2,
		}
		opts.Trace = metrics.NewTracer(8192)
	}
	e, err := rt.New(g, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "etsbench: %v\n", err)
		os.Exit(1)
	}
	if assign != nil {
		for _, grp := range e.ShardGroups() {
			for _, s := range grp.Splitters {
				s.Retarget(assign, 0) // pre-start: governs from the first tuple
			}
		}
	}
	var ctl *adapt.Controller
	if adaptive {
		ctl = adapt.Attach(e)
	}
	e.Start()
	if ctl != nil {
		ctl.Start()
	}

	const span = 64
	var magL, magR tuple.Magazine
	mk := func(mag *tuple.Magazine, ts tuple.Time, key, seq int64) *tuple.Tuple {
		t := mag.Get()
		t.Ts = ts
		t.Kind = tuple.Data
		t.Vals = append(t.Vals, tuple.Int(key), tuple.Int(seq))
		return t
	}
	punct := func(seq int) {
		// Bounds are exact: every future tuple on every source carries
		// ts > seq. These explicit rounds are the boundaries all
		// reconfigurations apply at — and because a key's twins share one
		// timestamp, a retarget barrier can never split a pair across two
		// shard assignments.
		e.Ingest(srcs[2], tuple.NewPunct(tuple.Time(seq+1)))
		e.Ingest(srcs[0], tuple.NewPunct(tuple.Time(seq+1)))
		e.Ingest(srcs[1], tuple.NewPunct(tuple.Time(seq+1)))
	}
	start := time.Now()
	rawsL := make([]*tuple.Tuple, 0, span)
	rawsR := make([]*tuple.Tuple, 0, span)
	for i := 0; i < per; i += span {
		// Flow control: splitter routing is orders of magnitude cheaper
		// than the join, so an unpaced driver lets the routing frontier
		// race to end-of-stream within milliseconds — every barrier would
		// land past the data and rebalancing could never redirect load.
		// Pacing ingestion to delivery keeps the frontier where real
		// streams have it: just ahead of processing.
		for i-int(rows.Load()) > adaptInflight {
			time.Sleep(20 * time.Microsecond)
		}
		n := span
		if rem := per - i; rem < n {
			n = rem
		}
		rawsR = rawsR[:0]
		rawsL = rawsL[:0]
		for k := 0; k < n; k++ {
			seq := int64(i + k)
			key := keys[i+k]
			rawsR = append(rawsR, mk(&magR, tuple.Time(seq), key, seq))
			rawsL = append(rawsL, mk(&magL, tuple.Time(seq), key, seq))
		}
		e.IngestBatch(srcs[2], rawsR)
		if (i/span)%2 == 0 {
			e.IngestBatch(srcs[0], rawsL)
		} else {
			e.IngestBatch(srcs[1], rawsL)
		}
		if (i / adaptPunctEvery) != (i+span)/adaptPunctEvery {
			punct(i + n - 1)
		}
	}
	for _, s := range srcs {
		e.CloseStream(s)
	}
	e.Wait()
	if ctl != nil {
		ctl.Stop()
	}
	elapsed := time.Since(start)

	snap := e.Snapshot()
	var lateAtSink, nodeRetunes uint64
	for _, ns := range snap.Nodes {
		nodeRetunes += ns.Retunes
	}
	if k := snap.Node("k"); k != nil {
		lateAtSink = k.LateTuples
	}
	ls := lat.Snapshot()
	n := uint64(2 * per)
	res := adaptiveResult{
		Name:         name,
		Tuples:       n,
		Seconds:      elapsed.Seconds(),
		TuplesPerSec: float64(n) / elapsed.Seconds(),
		JoinRows:     rows.Load(),
		LatencyP50Us: float64(ls.Percentile(0.50)),
		LatencyP95Us: float64(ls.Percentile(0.95)),
		LateAtSink:   lateAtSink,
		NodeRetunes:  nodeRetunes,
		ShardTuples:  e.ShardTuples(),
	}
	if ctl != nil {
		res.BatchRetunes, res.ShardRetunes, _ = ctl.Decisions()
		res.ShardApplies = e.Registry().Counter("sm_adapt_shard_applies_total").Load()
	}
	return res
}

// runProbeReorder drives the 3-way multiway equi-join where input 2 never
// matches: natural order enumerates input 1's expensive matches first,
// cheapest-first kills every candidate at one scan.
func runProbeReorder(steps int, adaptive bool) (float64, uint64, uint64) {
	sch := tuple.NewSchema("s", tuple.Field{Name: "key", Kind: tuple.IntKind}).
		WithTS(tuple.External)
	const δ = 1 << 40
	g := graph.New("probebench")
	s1 := ops.NewSource("s1", sch, δ)
	s2 := ops.NewSource("s2", sch, δ)
	s3 := ops.NewSource("s3", sch, δ)
	a := g.AddNode(s1)
	b := g.AddNode(s2)
	c := g.AddNode(s3)
	mj := ops.NewMultiEquiJoin("mj", nil, window.TimeWindow(adaptProbeSpan), 0, 0, 0)
	j := g.AddNode(mj, a, b, c)
	var rows atomic.Uint64
	g.AddNode(ops.NewSink("k", func(*tuple.Tuple, tuple.Time) { rows.Add(1) }), j)

	opts := rt.Options{Recycle: true}
	if adaptive {
		opts.Adaptive = &rt.AdaptiveOptions{Interval: 2 * time.Millisecond}
	}
	e, err := rt.New(g, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "etsbench: %v\n", err)
		os.Exit(1)
	}
	var ctl *adapt.Controller
	if adaptive {
		ctl = adapt.Attach(e)
	}
	e.Start()
	if ctl != nil {
		ctl.Start()
	}
	start := time.Now()
	for i := 0; i < steps; i++ {
		ts := tuple.Time(i)
		// Inputs 0 and 1 share a key (their windows cross-match densely);
		// input 2 never matches, so it can veto every candidate cheaply —
		// if it is probed first.
		e.Ingest(s1, tuple.NewData(ts, tuple.Int(1)))
		e.Ingest(s2, tuple.NewData(ts, tuple.Int(1)))
		e.Ingest(s3, tuple.NewData(ts, tuple.Int(2)))
		if i%adaptProbeSpan == adaptProbeSpan-1 {
			p := tuple.Time(i + 1)
			e.Ingest(s1, tuple.NewPunct(p))
			e.Ingest(s2, tuple.NewPunct(p))
			e.Ingest(s3, tuple.NewPunct(p))
		}
	}
	for _, s := range []*ops.Source{s1, s2, s3} {
		e.CloseStream(s)
	}
	e.Wait()
	if ctl != nil {
		ctl.Stop()
	}
	elapsed := time.Since(start)
	var retunes uint64
	if ctl != nil {
		_, _, retunes = ctl.Decisions()
	}
	return float64(3*steps) / elapsed.Seconds(), rows.Load(), retunes
}

// runAdaptiveBench runs the static sweep and the adaptive contestant on the
// drifting-skew workload, the probe-reorder sub-benchmark, and writes the
// JSON report.
func runAdaptiveBench(total int, out string) {
	per := total / 2
	if per < adaptPhases*adaptPunctEvery {
		fmt.Fprintf(os.Stderr, "etsbench: -adaptive-tuples too small (got %d)\n", total)
		os.Exit(2)
	}
	keys, loads := adaptKeys(per, adaptShards, adaptPhases)
	oracle := partition.Balance(loads, adaptShards)
	rep := adaptiveReport{
		Workload: "drifting-skew union+join: (s1 ∪ s2) ⋈[key] s3, 4 shards, " +
			"all hot buckets canonically on shard 0, hot set drifts per phase",
		Tuples:     total,
		Phases:     adaptPhases,
		Shards:     adaptShards,
		WindowSpan: shardSpan,
		GoVersion:  goruntime.Version(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	fail := func(format string, args ...interface{}) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}

	runAdaptiveConfig("warmup", keys[:per/8], 0, nil, false)
	show := func(r adaptiveResult) {
		fmt.Printf("%-24s %10.0f tuples/s  %8d rows  p50 %6.0fµs  shard-tuples %v",
			r.Name, r.TuplesPerSec, r.JoinRows, r.LatencyP50Us, r.ShardTuples)
		if r.ShardRetunes > 0 || r.BatchRetunes > 0 {
			fmt.Printf("  retunes batch=%d shard=%d applied=%d",
				r.BatchRetunes, r.ShardRetunes, r.ShardApplies+r.NodeRetunes)
		}
		fmt.Println()
	}
	check := func(r adaptiveResult) {
		if r.JoinRows != uint64(per) {
			fail("%s produced %d join rows, want %d — configuration changed the result",
				r.Name, r.JoinRows, per)
		}
		if r.LateAtSink != 0 {
			fail("%s delivered %d tuples below a sink bound (late budget is 0)",
				r.Name, r.LateAtSink)
		}
	}

	type staticCfg struct {
		name   string
		batch  int
		assign []int32
	}
	statics := []staticCfg{
		{"static-default", 0, nil},
		{"static-batch256", 256, nil},
		{"static-oracle", 0, oracle},
		{"static-oracle-batch256", 256, oracle},
	}
	var def, best adaptiveResult
	for i, c := range statics {
		r := runAdaptiveConfig(c.name, keys, c.batch, c.assign, false)
		check(r)
		show(r)
		rep.Results = append(rep.Results, r)
		if i == 0 {
			def = r
		}
		if r.TuplesPerSec > best.TuplesPerSec {
			best = r
		}
	}
	ad := runAdaptiveConfig("adaptive", keys, 0, nil, true)
	check(ad)
	show(ad)
	rep.Results = append(rep.Results, ad)
	rep.BestStatic = best.Name
	rep.AdaptiveVsDefaultX = ad.TuplesPerSec / def.TuplesPerSec
	rep.AdaptiveVsBestStatic = ad.TuplesPerSec / best.TuplesPerSec
	if ad.ShardRetunes == 0 || ad.ShardApplies == 0 {
		fail("adaptive run shows no applied rebalance (issued %d, applied %d)",
			ad.ShardRetunes, ad.ShardApplies)
	}
	fmt.Printf("adaptive vs static-default: %.2fx;  vs best static (%s): %.2f\n",
		rep.AdaptiveVsDefaultX, best.Name, rep.AdaptiveVsBestStatic)

	natTps, natRows, _ := runProbeReorder(adaptProbeSteps, false)
	adTps, adRows, reorders := runProbeReorder(adaptProbeSteps, true)
	rep.ProbeReorder = probeReorderResult{
		Steps:        adaptProbeSteps,
		NaturalTps:   natTps,
		AdaptiveTps:  adTps,
		SpeedupX:     adTps / natTps,
		ProbeRetunes: reorders,
		RowsNatural:  natRows,
		RowsAdaptive: adRows,
	}
	if natRows != adRows {
		fail("probe reordering changed the join output: %d vs %d rows", natRows, adRows)
	}
	if reorders == 0 {
		fail("probe benchmark issued no reorder")
	}
	fmt.Printf("probe reorder: natural %.0f t/s, adaptive %.0f t/s (%.2fx, %d reorders)\n",
		natTps, adTps, rep.ProbeReorder.SpeedupX, reorders)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "etsbench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "etsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", out)
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "etsbench: adaptive violation: %s\n", v)
		}
		os.Exit(1)
	}
}

// runAdaptiveSmoke is the CI gate: a short adaptive run that must retune at
// least once at a punctuation boundary while keeping the join exact and the
// output inside its bounds. Exits non-zero otherwise. Run under -race.
func runAdaptiveSmoke(total int) {
	per := total / 2
	keys, _ := adaptKeys(per, adaptShards, adaptPhases)
	r := runAdaptiveConfig("adaptive-smoke", keys, 0, nil, true)
	fmt.Printf("adaptive smoke: %d tuples, %d rows, retunes batch=%d shard=%d, applied node=%d shard=%d, late=%d\n",
		r.Tuples, r.JoinRows, r.BatchRetunes, r.ShardRetunes, r.NodeRetunes, r.ShardApplies, r.LateAtSink)
	bad := false
	report := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "etsbench: adaptive smoke: "+format+"\n", args...)
		bad = true
	}
	if r.JoinRows != uint64(per) {
		report("join produced %d rows, want %d", r.JoinRows, per)
	}
	if r.LateAtSink != 0 {
		report("%d tuples delivered below a sink bound", r.LateAtSink)
	}
	if r.BatchRetunes+r.ShardRetunes == 0 {
		report("controller issued no retune")
	}
	if r.NodeRetunes+r.ShardApplies == 0 {
		report("no retune observably applied at a punctuation boundary")
	}
	if bad {
		os.Exit(1)
	}
	fmt.Println("adaptive smoke: all invariants held")
}
