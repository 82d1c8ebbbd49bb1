package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestTracerRingAndCounts(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(EvBatchFlush, "n", 0, int64(i))
	}
	tr.Emit(EvIdleEnter, "u", 5, 0)
	if got := tr.Total(); got != 11 {
		t.Errorf("Total = %d, want 11", got)
	}
	// Per-kind counts survive ring eviction.
	if got := tr.Count(EvBatchFlush); got != 10 {
		t.Errorf("Count(BatchFlush) = %d, want 10", got)
	}
	recent := tr.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("Recent = %d events, want ring size 4", len(recent))
	}
	// Oldest-first ordering, ending with the IdleEnter.
	last := recent[len(recent)-1]
	if last.Kind != EvIdleEnter || last.Node != "u" {
		t.Errorf("last event = %+v", last)
	}
	for i := 1; i < len(recent); i++ {
		if recent[i-1].Seq >= recent[i].Seq {
			t.Errorf("events out of order: %v", recent)
		}
	}
	if got := len(tr.Recent(2)); got != 2 {
		t.Errorf("Recent(2) = %d events", got)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *Tracer
	tr.Emit(EvETSGen, "s", 1, 1) // must not panic
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Emit(EvWatermarkAdvance, "m", 0, int64(i))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tr.Recent(0)
			tr.Total()
		}
	}()
	wg.Wait()
	if got := tr.Count(EvWatermarkAdvance); got != 2000 {
		t.Errorf("count = %d, want 2000", got)
	}
}

func TestEventJSON(t *testing.T) {
	tr := NewTracer(4)
	tr.Emit(EvWatermarkAdvance, "u", 10, 42)
	ev := tr.Recent(0)[0]
	b, err := ev.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"WatermarkAdvance"`) {
		t.Errorf("json = %s", b)
	}
}
