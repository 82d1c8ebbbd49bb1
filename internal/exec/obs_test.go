package exec

import (
	"strings"
	"testing"

	"repro/internal/ets"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/tuple"
)

// The sim engine's instruments must mirror its own counters: steps, ETS
// injections, queue peak, and the per-node execution shares.
func TestExecInstrumented(t *testing.T) {
	f := buildFig4(ops.TSM, tuple.Internal)
	clock := tuple.Time(0)
	pol := &ets.OnDemand{}
	e := MustNew(f.g, pol, func() tuple.Time { return clock })
	reg := metrics.NewRegistry()
	tr := metrics.NewTracer(16)
	e.InstrumentInto(reg)
	e.SetTracer(tr)

	clock = 100
	f.src1.Ingest(tuple.NewData(0, tuple.Int(1)), clock)
	e.Run(1000)
	if len(f.out) != 1 {
		t.Fatalf("out=%v", f.out)
	}

	vals := map[string]float64{}
	for _, m := range reg.Snapshot() {
		vals[m.Name] = m.Value
	}
	if got := vals["sm_sim_steps_total"]; got != float64(e.Steps()) {
		t.Errorf("steps metric %v != engine %d", got, e.Steps())
	}
	if got := vals["sm_sim_ets_injected_total"]; got != float64(e.ETSInjected()) {
		t.Errorf("ets metric %v != engine %d", got, e.ETSInjected())
	}
	if e.ETSInjected() == 0 || tr.Count(metrics.EvETSGen) != e.ETSInjected() {
		t.Errorf("trace EvETSGen %d != injected %d", tr.Count(metrics.EvETSGen), e.ETSInjected())
	}
	if vals["sm_sim_queue_peak"] < 1 {
		t.Errorf("queue peak %v, want ≥ 1", vals["sm_sim_queue_peak"])
	}
	var perNode, sawBuffered float64
	for name, v := range vals {
		base, _ := metrics.SplitName(name)
		if base == "sm_sim_node_steps_total" {
			perNode += v
		}
		if base == "sm_sim_node_buffered" {
			sawBuffered++
		}
	}
	if perNode != float64(e.Steps()) {
		t.Errorf("per-node steps sum %v != %d", perNode, e.Steps())
	}
	if int(sawBuffered) != f.g.Len() {
		t.Errorf("buffered gauges = %v, want one per node (%d)", sawBuffered, f.g.Len())
	}
	if len(e.BlockedWithData()) != 0 {
		t.Error("nothing should be idle-waiting after release")
	}
}

// DotAnnotated stamps the annotation into node labels; Dot stays unchanged.
func TestDotAnnotated(t *testing.T) {
	f := buildFig4(ops.TSM, tuple.Internal)
	plain := f.g.Dot()
	if strings.Contains(plain, "steps=") {
		t.Fatal("plain dot already annotated")
	}
	annotated := f.g.DotAnnotated(func(n *graph.Node) string {
		return "steps=7"
	})
	if !strings.Contains(annotated, "steps=7") {
		t.Fatalf("annotation missing:\n%s", annotated)
	}
}
