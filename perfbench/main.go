// Command perfbench is the repository's benchmark. It assembles the engine
// exactly as `streamd -listen` does with default flags, feeds it over
// loopback TCP through the client package from an open-loop generator, and
// checks every run's results against a single-threaded replay of the same
// inputs through the DFS engine.
//
//	go run . --workload ets-union --seed 1 --seconds 10 --trace 0
//
// It must run from the repository root. With --trace 0 the last line of
// standard output is a JSON object carrying the end-to-end metrics; with
// --trace 1 the run is repeated with the benchmark's own spans and counters
// on, and the object carries the per-layer metrics instead. See README.md
// for the workloads and for which layer metric should move which
// end-to-end metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"strings"
)

// nPaced is the number of paced load points: lo and hi.
const nPaced = 2

type colKind uint8

const (
	colID     colKind = iota // the tuple id (stream<<40 | seq); always column 0
	colKey                   // Zipf-distributed join key
	colSel                   // uniform in [0, 1000): the filter's selectivity column
	colInt                   // uniform int
	colFloat                 // uniform float
	colString                // a word from a fixed vocabulary
)

// streamSpec is one input stream and its fixed offered load.
type streamSpec struct {
	name    string
	rate    [nPaced]float64 // tuples/s at the lo and hi load points
	unpaced int             // tuples per unpaced flood
	// upRate spaces the unpaced tuples' timestamps (tuples/s of event
	// time), so the flood carries the same data — and the same join work —
	// however fast it is drained.
	upRate float64
}

// workload is one query with its inputs. Rates are absolute and the same on
// every commit, so latency is always reported at a stated offered load.
type workload struct {
	name    string
	ddl     string
	query   string
	streams []streamSpec
	cols    []colKind // column layout shared by every stream
	keys    int64     // key space of colKey
	zipfS   float64   // Zipf exponent of colKey
	// heartbeats keeps the client's default heartbeats on, so the server's
	// skew estimator widens δ from measured delays; off, δ stays as
	// declared.
	heartbeats bool
	// Plan nodes playing each role in the per-layer metrics ("" = none).
	iwp, agg, filter string
}

// Each workload's offered rates are stated fractions of its peak_tps at the
// seed: flood tuples per second until drained, the median of 30 floods (ten
// runs of three) of the commit the benchmark was written against, on a
// 2-vCPU x86 VM. The rates were fixed from these once and do not follow
// later commits' throughput.
const (
	unionPeakTps  = 1_778_000 // ets-union: the fast stream, after the slow one ended
	joinPeakTps   = 390_000   // join-agg: a and b together
	filterPeakTps = 962_000   // filter-ingest
)

// share is the lo and hi rates that are fractions lo and hi of peak.
func share(peak, lo, hi float64) [nPaced]float64 { return [nPaced]float64{lo * peak, hi * peak} }

var workloads = []*workload{
	{
		name: "ets-union",
		ddl: `CREATE STREAM fast (id int, v int) TIMESTAMP EXTERNAL SKEW 100ms;
		      CREATE STREAM slow (id int, v int) TIMESTAMP EXTERNAL SKEW 100ms`,
		query: "SELECT * FROM fast UNION slow",
		streams: []streamSpec{
			// The paper's shape: a few thousand t/s on the fast stream, 1000x
			// (lo) and 2000x (hi) the slow one, so the slow stream rarely has
			// a tuple within δ.
			{name: "fast", rate: share(unionPeakTps, 0.0011, 0.0045), unpaced: 1_000_000, upRate: 1_000_000},
			{name: "slow", rate: share(unionPeakTps, 0.0011/1000, 0.0045/2000)},
		},
		cols: []colKind{colID, colInt},
		iwp:  "union",
	},
	{
		name: "join-agg",
		ddl: `CREATE STREAM a (id int, k int, v int) TIMESTAMP EXTERNAL SKEW 100ms;
		      CREATE STREAM b (id int, k int, w int) TIMESTAMP EXTERNAL SKEW 100ms`,
		query: "SELECT k, count(*) AS n, sum(v) AS sv, sum(w) AS sw " +
			"FROM a JOIN b ON a.k = b.k WINDOW 2s GROUP BY k WINDOW 20ms",
		streams: []streamSpec{
			// 1% and 4% of peak over both streams: at hi the 2 s windows hold
			// ~31,000 tuples, more than the L2 cache; at lo a quarter of that.
			{name: "a", rate: share(joinPeakTps, 0.005, 0.02), unpaced: 80_000, upRate: 0.02 * joinPeakTps},
			{name: "b", rate: share(joinPeakTps, 0.005, 0.02), unpaced: 80_000, upRate: 0.02 * joinPeakTps},
		},
		cols:  []colKind{colID, colKey, colInt},
		keys:  1 << 16,
		zipfS: 0.6,
		iwp:   "join",
		agg:   "aggregate",
	},
	{
		name: "filter-ingest",
		ddl: `CREATE STREAM wide (id int, sel int, i1 int, i2 int, i3 int, f1 float, f2 float, f3 float,
		      s1 string, s2 string, s3 string, s4 string) TIMESTAMP EXTERNAL SKEW 100ms`,
		query: "SELECT * FROM wide WHERE sel < 10",
		streams: []streamSpec{
			// 3% and 10% of peak: ticks of ~29 and ~96 tuples, well short of
			// the rate at which the paced sends would queue.
			{name: "wide", rate: share(filterPeakTps, 0.03, 0.10), unpaced: 500_000, upRate: 500_000},
		},
		cols: []colKind{colID, colSel, colInt, colInt, colInt, colFloat, colFloat, colFloat,
			colString, colString, colString, colString},
		// Its latency does not wait on δ, so this is the workload that keeps
		// heartbeats on and shows the skew-widened δ (server.delta_ms).
		heartbeats: true,
		filter:     "where",
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run: ets-union, join-agg or filter-ingest")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the paced phases together, in seconds")
	trace := flag.Int("trace", 0, "1 adds a traced run and reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	w := lookupWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	out, err := bench(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench runs one invocation: the timed run, plus the traced run when asked.
// It prints the host stamp and a summary before the result line.
func bench(w *workload, seed uint64, seconds int, traced bool) (*report, error) {
	// A traced invocation splits its time between the untraced baseline and
	// the traced run, so both kinds of invocation take about as long.
	secs := seconds
	if traced {
		secs = max(seconds/2, 1)
	}
	r, err := measure(w, seed, secs, false)
	if err != nil {
		return nil, err
	}
	stamp(w, seed, secs, r)
	out := &report{Attempted: r.attempted(), Failed: r.failures(), Metrics: map[string]metricValue{}}
	vals := endToEnd(r)
	specs := endToEndSpecs
	if traced {
		tr, err := measure(w, seed, secs, true)
		if err != nil {
			return nil, err
		}
		stamp(w, seed, secs, tr)
		out.Attempted += tr.attempted()
		out.Failed += tr.failures()
		vals = perLayer(w, tr, r)
		specs = perLayerSpecs
	}
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		out.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// stamp prints the facts a result depends on, and the run's verdict.
func stamp(w *workload, seed uint64, seconds int, r *run) {
	rates := map[string][]float64{}
	unpaced := map[string]int{}
	for _, st := range w.streams {
		rates[st.name] = st.rate[:]
		unpaced[st.name] = st.unpaced
	}
	p := r.paced
	var floodS, floodCPU, floodCal []float64
	for _, g := range r.floods {
		floodS = append(floodS, g.upSeconds)
		floodCPU = append(floodCPU, g.upCPU)
		floodCal = append(floodCal, g.calS)
	}
	var v verdict
	late, sendErrs, results := map[string]uint64{}, 0, 0
	for _, g := range r.segments() {
		v.missing += g.v.missing
		v.extra += g.v.extra
		v.disorder += g.v.disorder
		v.refDisorder += g.v.refDisorder
		v.late += g.v.late
		v.refRows += g.v.refRows
		sendErrs += g.sendErrs
		results += g.v.rows
		for _, n := range g.snap.Nodes {
			if n.LateTuples > 0 {
				late[n.Node] += n.LateTuples
			}
		}
	}
	facts := map[string]any{
		"workload":        w.name,
		"traced":          r.traced,
		"seed":            seed,
		"seconds":         seconds,
		"nproc":           goruntime.NumCPU(),
		"gomaxprocs":      goruntime.GOMAXPROCS(0),
		"go":              goruntime.Version(),
		"commit":          treeDigest(),
		"offered_tps":     rates,
		"flood_tuples":    unpaced,
		"floods":          len(r.floods),
		"flood_seconds":   floodS,
		"flood_cpu_s":     floodCPU,
		"flood_calib_s":   floodCal,
		"samples_lo":      len(pool(p.rec.lat[0])),
		"samples_hi":      len(pool(p.rec.lat[1])),
		"gen_samples":     len(pool(p.lateness())),
		"gen_late_max_ms": pct(pool(p.lateness()), 100) / 1e3,
		"paced_gcs":       p.pacedGCs,
		"heap_lo_peak_mb": float64(p.heapPeak[0]) / (1 << 20),
		"paced_stalls":    p.conn.CreditStalls,
		"results":         results,
		"reference_rows":  v.refRows,
		"missing":         v.missing,
		"extra":           v.extra,
		"disorder":        v.disorder,
		"ref_disorder":    v.refDisorder,
		"late_tuples":     v.late,
		"late_by_node":    late,
		"send_errors":     sendErrs,
		"attempted":       r.attempted(),
		"fail_frac":       float64(r.failures()) / float64(max(r.attempted(), 1)),
	}
	b, _ := json.Marshal(facts) // a map of plain values always marshals
	fmt.Println("# run", string(b))
	if r.failures() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d failures against the DFS reference "+
			"(missing %d, extra %d, disorder %d, reference disorder %d, late %d, send errors %d)\n",
			w.name, seed, r.failures(), v.missing, v.extra, v.disorder, v.refDisorder, v.late, sendErrs)
	}
}

// treeDigest identifies the code under test: a hash over the module's Go
// sources, since the benchmark may run from a checkout without git.
func treeDigest() string {
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	slices.Sort(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:12]
}
