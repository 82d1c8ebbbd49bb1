package metrics

import (
	"math/rand"
	"testing"

	"repro/internal/tuple"
)

// Interleaved Observe/Percentile must stay correct across the sort cache:
// a Percentile call sorts in place, later Observes must invalidate.
func TestPercentileInterleaved(t *testing.T) {
	l := NewLatency()
	for _, v := range []tuple.Time{50, 10, 40} {
		l.Observe(v)
	}
	if got := l.Percentile(100); got != 50 {
		t.Fatalf("p100 = %v, want 50", got)
	}
	l.Observe(5) // smaller than the sorted tail: must re-sort
	if got := l.Percentile(1); got != 5 {
		t.Errorf("p1 after late small sample = %v, want 5", got)
	}
	if got := l.Percentile(100); got != 50 {
		t.Errorf("p100 = %v, want 50", got)
	}
	l.Observe(60) // ≥ tail keeps sortedness
	if got := l.Percentile(100); got != 60 {
		t.Errorf("p100 = %v, want 60", got)
	}
	if got, want := l.Mean(), tuple.Time((50+10+40+5+60)/5); got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	l.Reset()
	l.Observe(3)
	if got := l.Percentile(50); got != 3 {
		t.Errorf("p50 after reset = %v", got)
	}
}

// Guard the Percentile fix: repeated percentile queries over a static
// accumulator must not re-sort (previously every call copied and sorted).
func BenchmarkLatencyPercentile(b *testing.B) {
	l := NewLatency()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		l.Observe(tuple.Time(rng.Int63n(1_000_000)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Percentile(50)
		_ = l.Percentile(95)
		_ = l.Percentile(99)
	}
}
