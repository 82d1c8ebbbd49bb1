package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tuple"
)

// The same seed must give byte-identical inputs, and another seed other
// inputs.
func TestInputsDeterministic(t *testing.T) {
	phase := [nPaced]int64{300_000, 300_000}
	for _, w := range workloads {
		a := append(w.encode(7, w.generate(7, phase)), w.encode(7, w.flood())...)
		b := append(w.encode(7, w.generate(7, phase)), w.encode(7, w.flood())...)
		c := append(w.encode(8, w.generate(8, phase)), w.encode(8, w.flood())...)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two generations", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
	}
}

// A short run of every workload must match the DFS reference exactly.
func TestShortRunsPassReference(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the engine over loopback for a few seconds per workload")
	}
	for _, w := range workloads {
		small := *w
		small.streams = append([]streamSpec(nil), w.streams...)
		for i := range small.streams {
			small.streams[i].unpaced /= 20
		}
		r, err := measure(&small, 11, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for i, g := range r.segments() {
			if g.failures() != 0 {
				t.Errorf("%s segment %d: %d failures (missing %d, extra %d, disorder %d, late %d, send errors %d)",
					w.name, i, g.failures(), g.v.missing, g.v.extra, g.v.disorder, g.v.late, g.sendErrs)
			}
			if g.v.refRows == 0 {
				t.Errorf("%s segment %d: the reference produced no rows", w.name, i)
			}
		}
	}
}

// BENCHMARK.json must name exactly the metrics the program prints.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, x := range spec.Workloads {
		if lookupWorkload(x.Name) == nil {
			t.Errorf("BENCHMARK.json workload %s is not defined", x.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndSpecs)
	same("per_layer", spec.PerLayer, perLayerSpecs)
}

// encode serialises the inputs — schedules plus the values of every tuple
// the run would send — for the determinism self-test.
func (w *workload) encode(seed uint64, in *inputs) []byte {
	var out []byte
	vals := make([]tuple.Value, len(w.cols))
	for s := range in.paced {
		for _, offs := range in.paced[s] {
			for _, o := range offs {
				out = binary.LittleEndian.AppendUint64(out, uint64(o))
			}
		}
		for seq := 0; seq < in.total(s); seq++ {
			w.fill(seed, s, uint64(seq), vals)
			for _, v := range vals {
				out = append(out, v.String()...)
				out = append(out, 0)
			}
		}
	}
	return out
}

// The fingerprint check must see a missing, an extra and a changed row.
func TestFingerprintDiff(t *testing.T) {
	ref, live := new(fingerprint), new(fingerprint)
	for i := uint64(0); i < 10_000; i++ {
		ref.add(mix(i))
		live.add(mix(i))
	}
	if m, e := diff(ref, live); m != 0 || e != 0 {
		t.Fatalf("equal multisets: missing %d, extra %d", m, e)
	}
	live.add(mix(3)) // a duplicate
	if m, e := diff(ref, live); m != 0 || e != 1 {
		t.Errorf("one extra row: missing %d, extra %d", m, e)
	}
	ref.add(mix(3))
	ref.add(mix(20_000))
	if m, e := diff(ref, live); m != 1 || e != 0 {
		t.Errorf("one missing row: missing %d, extra %d", m, e)
	}
	// Replace it with a different row in the same bucket.
	for i := uint64(20_001); ; i++ {
		if mix(i)>>(64-fpBits) == mix(20_000)>>(64-fpBits) {
			live.add(mix(i))
			break
		}
	}
	if m, e := diff(ref, live); m != 1 || e != 1 {
		t.Errorf("one wrong row: missing %d, extra %d", m, e)
	}
}
