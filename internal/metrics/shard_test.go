package metrics

import (
	"sync"
	"testing"
)

func TestPerShardBasics(t *testing.T) {
	p := NewPerShard(3)
	if p.Len() != 3 || p.Total() != 0 {
		t.Fatalf("fresh PerShard: len=%d total=%d", p.Len(), p.Total())
	}
	p.Add(0, 5)
	p.Add(2, 7)
	p.Add(2, 1)
	if p.Get(0) != 5 || p.Get(1) != 0 || p.Get(2) != 8 {
		t.Fatalf("counters = %v", p.Snapshot())
	}
	if p.Total() != 13 {
		t.Fatalf("total = %d", p.Total())
	}
	if s := p.String(); s != "shards[5 0 8]" {
		t.Errorf("String = %q", s)
	}
}

func TestPerShardAddToRollsUp(t *testing.T) {
	a, b := NewPerShard(2), NewPerShard(4)
	a.Add(0, 1)
	a.Add(1, 2)
	b.Add(1, 10)
	b.Add(3, 30)
	dst := a.AddTo(nil)
	dst = b.AddTo(dst)
	want := []uint64{1, 12, 0, 30}
	if len(dst) != len(want) {
		t.Fatalf("rollup = %v", dst)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("rollup = %v, want %v", dst, want)
		}
	}
}

// Concurrent writers on distinct and shared shards; run under -race this
// doubles as the counters' race-cleanliness check (ISSUE 2 satellite).
func TestPerShardConcurrent(t *testing.T) {
	p := NewPerShard(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.Add(w%4, 1)
				_ = p.Snapshot() // readers may overlap writers
			}
		}()
	}
	wg.Wait()
	if p.Total() != 8000 {
		t.Fatalf("total = %d, want 8000", p.Total())
	}
}
