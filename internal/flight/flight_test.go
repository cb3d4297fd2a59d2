package flight

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"automdt/internal/env"
)

func newEnabled(capacity int) *Recorder {
	r := NewRecorder()
	r.Enable(capacity)
	return r
}

func TestRecorderDisabledDropsEverything(t *testing.T) {
	r := NewRecorder()
	if r.Active() {
		t.Fatal("fresh recorder reports active")
	}
	r.Record(Event{Source: "a", Kind: KindDecision})
	if got := r.Dump("", 0); len(got) != 0 {
		t.Fatalf("disabled recorder stored %d events", len(got))
	}
}

func TestRecorderSequencesPerSource(t *testing.T) {
	r := newEnabled(8)
	for i := 0; i < 3; i++ {
		r.Record(Event{Source: "a", Kind: KindDecision})
		r.Record(Event{Source: "b", Kind: KindDecision})
	}
	for _, src := range []string{"a", "b"} {
		evs := r.Dump(src, 0)
		if len(evs) != 3 {
			t.Fatalf("source %s: %d events, want 3", src, len(evs))
		}
		for i, ev := range evs {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("source %s event %d: Seq=%d, want %d", src, i, ev.Seq, i+1)
			}
		}
	}
	if srcs := r.Sources(); len(srcs) != 2 || srcs[0] != "a" || srcs[1] != "b" {
		t.Fatalf("Sources=%v", srcs)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := newEnabled(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Source: "s", Kind: KindDecision, Note: fmt.Sprint(i)})
	}
	evs := r.Dump("s", 0)
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want capacity 4", len(evs))
	}
	// The live window is the last four appends, in order, keeping their
	// original sequence numbers (7..10) — a Seq gap at the front tells a
	// reader that events 1..6 were evicted.
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("event %d: Seq=%d, want %d", i, ev.Seq, want)
		}
		if want := fmt.Sprint(6 + i); ev.Note != want {
			t.Fatalf("event %d: Note=%q, want %q", i, ev.Note, want)
		}
	}
}

func TestDumpSinceAndSourceFilters(t *testing.T) {
	r := newEnabled(8)
	for i := 0; i < 5; i++ {
		r.Record(Event{Source: "a", Kind: KindDecision})
	}
	r.Record(Event{Source: "b", Kind: KindAdmission})
	if evs := r.Dump("a", 4); len(evs) != 2 || evs[0].Seq != 4 {
		t.Fatalf("since=4 dump: %+v", evs)
	}
	if evs := r.Dump("", 0); len(evs) != 6 {
		t.Fatalf("unfiltered dump: %d events, want 6", len(evs))
	}
	if evs := r.Dump("missing", 0); evs != nil {
		t.Fatalf("unknown source: %v", evs)
	}
}

func TestTailReturnsLastN(t *testing.T) {
	r := newEnabled(8)
	for i := 0; i < 6; i++ {
		r.Record(Event{Source: "s", CumRegret: float64(i)})
	}
	tail := r.Tail("s", 2)
	if len(tail) != 2 || tail[1].CumRegret != 5 {
		t.Fatalf("Tail = %+v", tail)
	}
	if got := r.Tail("s", 0); got != nil {
		t.Fatalf("Tail n=0 = %v", got)
	}
	if got := r.Tail("nope", 3); got != nil {
		t.Fatalf("Tail unknown source = %v", got)
	}
	if last, ok := r.Last("s"); !ok || last.CumRegret != 5 {
		t.Fatalf("Last = %+v ok=%v", last, ok)
	}
}

func TestResetClearsEventsKeepsEnabled(t *testing.T) {
	r := newEnabled(8)
	r.Record(Event{Source: "s"})
	r.Hist(StageRead).Observe(0.01)
	r.Reset()
	if evs := r.Dump("", 0); len(evs) != 0 {
		t.Fatalf("Reset left %d events", len(evs))
	}
	if n := r.Hist(StageRead).Count(); n != 0 {
		t.Fatalf("Reset left %d histogram observations", n)
	}
	if !r.Active() {
		t.Fatal("Reset disabled the recorder")
	}
	r.Record(Event{Source: "s"})
	if evs := r.Dump("s", 0); len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("post-Reset sequence: %+v", evs)
	}
}

// A stage span is on the per-chunk path, so its cost is held exactly:
// no heap allocation with the recorder off or on.
func TestStageSpansRecordOnlyWhenEnabled(t *testing.T) {
	r := NewRecorder()
	if start := r.StageStart(); !start.IsZero() {
		t.Fatal("disabled StageStart returned a live clock reading")
	}
	span := func() { r.StageEnd(StageRead, r.StageStart()) }
	if a := testing.AllocsPerRun(100, span); a != 0 {
		t.Fatalf("span with the recorder off: %v allocs, want 0", a)
	}
	if n := r.Hist(StageRead).Count(); n != 0 {
		t.Fatalf("disabled spans recorded %d observations", n)
	}
	r.Enable(0)
	span()
	if n := r.Hist(StageRead).Count(); n != 1 {
		t.Fatalf("enabled span count=%d, want 1", n)
	}
	// A span started while enabled but ended after Disable is dropped.
	start := r.StageStart()
	r.Disable()
	r.StageEnd(StageRead, start)
	if n := r.Hist(StageRead).Count(); n != 1 {
		t.Fatalf("span across Disable leaked: count=%d", n)
	}
	r.Enable(0)
	if a := testing.AllocsPerRun(100, span); a != 0 {
		t.Fatalf("span with the recorder on: %v allocs, want 0", a)
	}
}

func TestMetricsSnapshotExportsCountersAndHistograms(t *testing.T) {
	r := newEnabled(2)
	r.Record(Event{Source: "s"})
	r.Record(Event{Source: "s"})
	r.Record(Event{Source: "s"}) // third append evicts the first
	r.ObserveStage(StageQueueWait, 0.5)
	text := r.MetricsSnapshot().Text()
	for _, want := range []string{
		"automdt_flight_enabled 1",
		"automdt_flight_events_total 3",
		"automdt_flight_events_evicted_total 1",
		"automdt_flight_sources 1",
		`automdt_stage_queue_wait_seconds{quantile="0.99"}`,
		"automdt_stage_queue_wait_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, text)
		}
	}
}

// scripted is a controller that always returns a fixed action.
type scripted struct {
	act env.Action
}

func (s scripted) Name() string                { return "scripted" }
func (s scripted) Decide(env.State) env.Action { return s.act }

// scriptedScorer additionally self-reports scored alternatives, like the
// real controllers' AlternativeScorer implementations.
type scriptedScorer struct {
	scripted
	alts []env.ScoredAction
}

func (s scriptedScorer) ScoredAlternatives(env.State) []env.ScoredAction { return s.alts }

func TestWrapControllerRegretHandScored(t *testing.T) {
	// Observed flow: 10 Mbps per stage at ⟨2,2,2⟩. The controller jumps to
	// ⟨4,4,4⟩. Candidates are the hold ⟨2,2,2⟩ plus each ±1 neighbor of the
	// chosen tuple; with throughput held fixed, utility decreases in
	// concurrency, so the best alternative is the hold and the regret is
	// the hand-computed utility gap U(2,2,2) − U(4,4,4).
	r := newEnabled(8)
	state := env.State{N: [env.StageCount]int{2, 2, 2, 2}, Throughput: env.StageVec{10, 10, 10, 10}}
	chosen := env.ActionOf(4, 4, 4, 4)
	w := WrapController(scripted{act: chosen}, r, "t", env.DefaultK, 3)
	if got := w.Decide(state); got != chosen {
		t.Fatalf("wrapper changed the decision: %v", got)
	}
	evs := r.Dump("t", 0)
	if len(evs) != 1 {
		t.Fatalf("%d events, want 1", len(evs))
	}
	ev := evs[0]
	u := func(a env.Action) float64 { return env.Utility(state.Throughput, a, env.DefaultK) }
	wantRegret := u(env.ActionOf(2, 2, 2, 2)) - u(chosen)
	if math.Abs(ev.Regret-wantRegret) > 1e-12 {
		t.Fatalf("regret=%.9f, want %.9f", ev.Regret, wantRegret)
	}
	if math.Abs(ev.Chosen.Score-u(chosen)) > 1e-12 {
		t.Fatalf("chosen score=%.9f, want %.9f", ev.Chosen.Score, u(chosen))
	}
	if ev.Kind != KindDecision || ev.Source != "t" || ev.Note != "scripted" {
		t.Fatalf("event metadata: %+v", ev)
	}
	if ev.N != state.N || ev.Throughput != state.Throughput {
		t.Fatalf("event state: %+v", ev)
	}
	if len(ev.Alts) != 3 {
		t.Fatalf("kept %d alts, want topK=3", len(ev.Alts))
	}
	if ev.Alts[0].N != [env.StageCount]int{2, 2, 2, 2} {
		t.Fatalf("best alt=%v, want hold [2 2 2 2]", ev.Alts[0].N)
	}
	for i := 1; i < len(ev.Alts); i++ {
		if ev.Alts[i].Score > ev.Alts[i-1].Score {
			t.Fatal("alternatives not sorted by descending score")
		}
	}
	if ev.CumRegret != ev.Regret {
		t.Fatalf("first-event CumRegret=%v, want regret %v", ev.CumRegret, ev.Regret)
	}
}

func TestWrapControllerZeroRegretWhenChosenIsBest(t *testing.T) {
	// Holding at minimal concurrency: every candidate scores lower, so the
	// regret clamps to zero rather than going negative.
	r := newEnabled(8)
	state := env.State{N: [env.StageCount]int{1, 1, 1, 1}, Throughput: env.StageVec{5, 5, 5, 5}}
	w := WrapController(scripted{act: env.ActionOf(1, 1, 1, 1)}, r, "t", 0, 0)
	w.Decide(state)
	ev := r.Dump("t", 0)[0]
	if ev.Regret != 0 {
		t.Fatalf("regret=%v, want 0", ev.Regret)
	}
}

func TestWrapControllerUsesSelfReportedAlternatives(t *testing.T) {
	r := newEnabled(8)
	state := env.State{N: [env.StageCount]int{3, 3, 3, 3}, Throughput: env.StageVec{10, 10, 10, 10}}
	chosen := env.ActionOf(4, 4, 4, 4)
	alt := env.ActionOf(2, 2, 2, 2)
	w := WrapController(scriptedScorer{
		scripted: scripted{act: chosen},
		alts: []env.ScoredAction{
			{Action: chosen, Score: 99, Label: "chosen"},
			{Action: alt, Score: -1, Label: "reverse"},
		},
	}, r, "t", env.DefaultK, 3)
	w.Decide(state)
	ev := r.Dump("t", 0)[0]
	if len(ev.Alts) != 1 || ev.Alts[0].Label != "reverse" {
		t.Fatalf("alts=%+v, want only the self-reported non-chosen candidate", ev.Alts)
	}
	// Self-reported scores are rescored counterfactually so every event
	// shares one scale: regret = U(alt) − U(chosen) at observed
	// throughput, not the controller's internal −1 vs 99.
	u := func(a env.Action) float64 { return env.Utility(state.Throughput, a, env.DefaultK) }
	want := u(alt) - u(chosen)
	if math.Abs(ev.Regret-want) > 1e-12 {
		t.Fatalf("regret=%.9f, want %.9f", ev.Regret, want)
	}
}

func TestWrapControllerCumulativeAndWarmStart(t *testing.T) {
	r := newEnabled(8)
	state := env.State{N: [env.StageCount]int{1, 1, 1, 1}, Throughput: env.StageVec{10, 10, 10, 10}}
	w := WrapController(scripted{act: env.ActionOf(3, 3, 3, 3)}, r, "sess", env.DefaultK, 3)
	w.Decide(state)
	w.Decide(state)
	evs := r.Dump("sess", 0)
	if evs[0].Regret == 0 || evs[1].CumRegret <= evs[0].CumRegret {
		t.Fatalf("cumulative regret not accumulating: %+v", evs)
	}
	// A second wrapper on the same source — a resumed attempt of the same
	// session — continues the cumulative series instead of restarting it.
	w2 := WrapController(scripted{act: env.ActionOf(3, 3, 3, 3)}, r, "sess", env.DefaultK, 3)
	w2.Decide(state)
	evs = r.Dump("sess", 0)
	last := evs[len(evs)-1]
	if last.CumRegret <= evs[1].CumRegret {
		t.Fatalf("warm start lost cumulative regret: %+v then %+v", evs[1], last)
	}
}

func TestWrapControllerInactiveRecorderRecordsNothing(t *testing.T) {
	r := NewRecorder() // never enabled
	w := WrapController(scripted{act: env.ActionOf(2, 2, 2, 2)}, r, "t", 0, 0)
	w.Decide(env.State{N: [env.StageCount]int{1, 1, 1, 1}})
	if evs := r.Dump("", 0); len(evs) != 0 {
		t.Fatalf("inactive recorder got %d events", len(evs))
	}
	if w.Name() != "scripted" {
		t.Fatalf("wrapper name=%q", w.Name())
	}
}

func TestUtilityFallsBackToDefaultK(t *testing.T) {
	s := env.State{Throughput: env.StageVec{10, 10, 10, 10}}
	got := Utility(s, env.ActionOf(1, 1, 1, 1), 0)
	want := env.Utility(s.Throughput, env.ActionOf(1, 1, 1, 1), env.DefaultK)
	if got != want {
		t.Fatalf("Utility(k=0)=%v, want DefaultK value %v", got, want)
	}
}
