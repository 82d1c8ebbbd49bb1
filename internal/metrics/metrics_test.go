package metrics

import (
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

func TestLatencyEmpty(t *testing.T) {
	l := NewLatency()
	if l.Count() != 0 || l.Mean() != 0 || l.Max() != 0 || l.Min() != 0 || l.Percentile(50) != 0 {
		t.Error("empty accumulator must report zeros")
	}
}

func TestLatencyStats(t *testing.T) {
	l := NewLatency()
	for _, v := range []tuple.Time{10, 20, 30, 40, 100} {
		l.Observe(v)
	}
	if l.Count() != 5 {
		t.Fatalf("Count = %d", l.Count())
	}
	if l.Mean() != 40 {
		t.Errorf("Mean = %v", l.Mean())
	}
	if l.Min() != 10 || l.Max() != 100 {
		t.Errorf("Min/Max = %v/%v", l.Min(), l.Max())
	}
	if p := l.Percentile(50); p != 30 {
		t.Errorf("P50 = %v", p)
	}
	if p := l.Percentile(100); p != 100 {
		t.Errorf("P100 = %v", p)
	}
	if p := l.Percentile(1); p != 10 {
		t.Errorf("P1 = %v", p)
	}
}

func TestLatencyReset(t *testing.T) {
	l := NewLatency()
	l.Observe(50)
	l.Reset()
	if l.Count() != 0 || l.Mean() != 0 {
		t.Error("Reset did not clear samples")
	}
	l.Observe(7)
	if l.Mean() != 7 || l.Min() != 7 || l.Max() != 7 {
		t.Error("accumulator broken after Reset")
	}
}

// Property: mean is always between min and max, and percentiles are
// monotone.
func TestLatencyProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		l := NewLatency()
		for _, v := range raw {
			l.Observe(tuple.Time(v))
		}
		if l.Mean() < l.Min() || l.Mean() > l.Max() {
			return false
		}
		prev := tuple.Time(-1)
		for _, p := range []float64{1, 25, 50, 75, 99, 100} {
			v := l.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return l.Percentile(100) == l.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIdleAccount(t *testing.T) {
	var a IdleAccount
	if a.Fraction() != 0 {
		t.Error("empty account fraction must be 0")
	}
	a.AddIdle(30)
	a.AddTotal(100)
	if a.Idle() != 30 || a.Total() != 100 {
		t.Errorf("counters: %v/%v", a.Idle(), a.Total())
	}
	if a.Fraction() != 0.3 {
		t.Errorf("Fraction = %v", a.Fraction())
	}
	a.Reset()
	if a.Idle() != 0 || a.Total() != 0 || a.Fraction() != 0 {
		t.Error("Reset failed")
	}
}
