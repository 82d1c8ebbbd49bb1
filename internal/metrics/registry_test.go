package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestRegistryInstruments(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter(`f_total{node="u"}`)
	c.Add(3)
	c.Inc()
	g := reg.Gauge("g")
	g.Set(7)
	g.Add(-2)
	reg.GaugeFunc("fn", func() int64 { return 42 })
	r := reg.Reservoir("lat", 8)
	for i := int64(1); i <= 20; i++ {
		r.Observe(i)
	}

	// Idempotent re-registration returns the same instrument.
	if reg.Counter(`f_total{node="u"}`) != c {
		t.Fatal("re-registration returned a different counter")
	}

	snap := reg.Snapshot()
	byName := map[string]Metric{}
	for _, m := range snap {
		byName[m.Name] = m
	}
	if v := byName[`f_total{node="u"}`].Value; v != 4 {
		t.Errorf("counter = %v, want 4", v)
	}
	if v := byName["g"].Value; v != 5 {
		t.Errorf("gauge = %v, want 5", v)
	}
	if v := byName["fn"].Value; v != 42 {
		t.Errorf("gauge func = %v, want 42", v)
	}
	res := byName["lat"].Res
	if res == nil || res.Count != 20 {
		t.Fatalf("reservoir snapshot = %+v", res)
	}
	// Window keeps the last 8 samples: 13..20.
	if got := res.Percentile(50); got < 13 || got > 20 {
		t.Errorf("p50 = %d outside retained window", got)
	}
	if got := res.Max(); got != 20 {
		t.Errorf("max = %d, want 20", got)
	}
}

func TestGaugeRaise(t *testing.T) {
	var g Gauge64
	g.Raise(5)
	g.Raise(3)
	if g.Load() != 5 {
		t.Errorf("Raise lowered the gauge: %d", g.Load())
	}
	g.Raise(9)
	if g.Load() != 9 {
		t.Errorf("Raise did not raise: %d", g.Load())
	}
}

func TestReservoirMerge(t *testing.T) {
	a := NewReservoir(4)
	b := NewReservoir(4)
	for i := int64(0); i < 4; i++ {
		a.Observe(i * 10)
		b.Observe(i*10 + 5)
	}
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 8 || len(m.Samples) != 8 {
		t.Fatalf("merged = %+v", m)
	}
	for i := 1; i < len(m.Samples); i++ {
		if m.Samples[i-1] > m.Samples[i] {
			t.Fatalf("merged samples not sorted: %v", m.Samples)
		}
	}
}

func TestSplitNameAndLabels(t *testing.T) {
	f, l := SplitName(`sm_x_total{node="u",id="3"}`)
	if f != "sm_x_total" || l != `node="u",id="3"` {
		t.Fatalf("SplitName = %q, %q", f, l)
	}
	if v := LabelValue(l, "node"); v != "u" {
		t.Errorf("LabelValue(node) = %q", v)
	}
	if v := LabelValue(l, "id"); v != "3" {
		t.Errorf("LabelValue(id) = %q", v)
	}
	if v := LabelValue(l, "missing"); v != "" {
		t.Errorf("LabelValue(missing) = %q", v)
	}
	f, l = SplitName("plain")
	if f != "plain" || l != "" {
		t.Fatalf("SplitName(plain) = %q, %q", f, l)
	}
}

func TestWriteProm(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`sm_t_total{node="a"}`).Add(1)
	reg.Counter(`sm_t_total{node="b"}`).Add(2)
	reg.Gauge("sm_depth").Set(5)
	reg.Reservoir("sm_lat_us", 16).Observe(100)
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE sm_t_total counter",
		`sm_t_total{node="a"} 1`,
		`sm_t_total{node="b"} 2`,
		"# TYPE sm_depth gauge",
		"sm_depth 5",
		"# TYPE sm_lat_us summary",
		`sm_lat_us{quantile="0.5"} 100`,
		"sm_lat_us_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	// Exactly one TYPE line per family.
	if strings.Count(out, "# TYPE sm_t_total") != 1 {
		t.Errorf("duplicate TYPE lines:\n%s", out)
	}
}

func TestHTTPHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sm_x_total").Add(9)
	tr := NewTracer(8)
	tr.Emit(EvETSGen, "s1", 100, 100)
	srv := httptest.NewServer(Handler(reg, tr))
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}
	if out := get("/metrics"); !strings.Contains(out, "sm_x_total 9") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/vars"); !strings.Contains(out, `"sm_x_total": 9`) {
		t.Errorf("/vars missing counter:\n%s", out)
	}
	if out := get("/trace"); !strings.Contains(out, `"ETSGen"`) {
		t.Errorf("/trace missing event:\n%s", out)
	}
}

// Race test: concurrent instrument updates against concurrent snapshots.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("shared_total")
			g := reg.Gauge("depth")
			r := reg.Reservoir("lat", 64)
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Set(int64(i))
				g.Raise(int64(i))
				r.Observe(int64(i))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			reg.Snapshot()
			var b strings.Builder
			_ = reg.WriteProm(&b)
		}
	}()
	wg.Wait()
	if got := reg.Counter("shared_total").Load(); got != 4000 {
		t.Errorf("shared counter = %d, want 4000", got)
	}
}
