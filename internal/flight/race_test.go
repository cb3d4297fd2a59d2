package flight

import (
	"sync"
	"testing"

	"automdt/internal/env"
)

// TestRecorderConcurrentStress hammers one recorder from many goroutines —
// event writers on shared and private sources, stage spans, wrapped
// controllers, and concurrent readers plus Reset/Enable/Disable flips —
// and relies on -race (the CI race job runs this package) to prove the
// ring and histogram paths are data-race free. The only invariant checked
// here is that nothing panics and dumps stay well-formed.
func TestRecorderConcurrentStress(t *testing.T) {
	r := newEnabled(32)
	const (
		writers = 8
		iters   = 500
	)
	var wg sync.WaitGroup

	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := "shared"
			if i%2 == 0 {
				src = "private-" + string(rune('a'+i))
			}
			w := WrapController(scripted{act: env.ActionOf(2, 2, 2, 2)}, r, "ctrl-"+src)
			st := env.State{N: [env.StageCount]int{1, 1, 1, 1}, Throughput: env.ThroughputVec(10, 5, 7)}
			for n := 0; n < iters; n++ {
				r.Record(Event{Source: src, Kind: KindDecision, Regret: float64(n)})
				w.Decide(st)
				span := r.StageStart()
				r.StageEnd(StageRead, span)
				r.ObserveStage(StageQueueWait, 0.001)
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < iters; n++ {
			for _, src := range r.Sources() {
				evs := r.Dump(src, 0)
				for j := 1; j < len(evs); j++ {
					if evs[j].Seq <= evs[j-1].Seq {
						t.Errorf("source %s: non-monotonic Seq %d after %d", src, evs[j].Seq, evs[j-1].Seq)
						return
					}
				}
			}
			r.Dump("shared", 0)
			r.MetricsSnapshot()
			if n%100 == 50 {
				r.Reset()
			}
			if n%97 == 0 {
				r.Disable()
				r.Enable(32)
			}
		}
	}()

	wg.Wait()
	// The recorder must still be usable after the churn.
	r.Enable(32)
	r.Record(Event{Source: "after", Kind: KindDecision})
	if evs := r.Dump("after", 0); len(evs) != 1 {
		t.Fatalf("post-stress record failed: %v", evs)
	}
}
