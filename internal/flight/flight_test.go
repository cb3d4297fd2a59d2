package flight

import (
	"encoding/json"
	"fmt"
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

// TestTailReturnsLastN: a source's events come back oldest first, so
// its newest are Dump's tail, and since cuts the older ones off.
func TestTailReturnsLastN(t *testing.T) {
	r := newEnabled(8)
	for i := 0; i < 6; i++ {
		r.Record(Event{Source: "s", CumRegret: float64(i)})
	}
	evs := r.Dump("s", 0)
	if len(evs) != 6 || evs[5].CumRegret != 5 || evs[4].CumRegret != 4 {
		t.Fatalf("Dump = %+v", evs)
	}
	if tail := r.Dump("s", evs[4].Seq); len(tail) != 2 || tail[1].CumRegret != 5 {
		t.Fatalf("Dump since the fifth event = %+v", tail)
	}
	if got := r.Dump("nope", 0); got != nil {
		t.Fatalf("Dump unknown source = %v", got)
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

// TestWrapControllerRecordsStateAndChoice: a decision event is a plain
// record of what happened — the observed state, the chosen tuple and the
// controller's name — with no score and no regret, and a second wrapper
// on the same source (a resumed attempt of the same session) continues
// the source's seq numbering.
func TestWrapControllerRecordsStateAndChoice(t *testing.T) {
	r := newEnabled(8)
	state := env.State{N: [env.StageCount]int{2, 2, 2, 2}, Throughput: env.StageVec{10, 10, 10, 10}}
	chosen := env.ActionOf(4, 4, 4, 4)
	w := WrapController(scripted{act: chosen}, r, "sess")
	for i := 0; i < 2; i++ {
		if got := w.Decide(state); got != chosen {
			t.Fatalf("wrapper changed the decision: %v", got)
		}
	}
	WrapController(scripted{act: chosen}, r, "sess").Decide(state)

	evs := r.Dump("sess", 0)
	if len(evs) != 3 {
		t.Fatalf("%d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d: Seq=%d, want %d (the re-wrapped source continues)", i, ev.Seq, i+1)
		}
		if ev.Kind != KindDecision || ev.Source != "sess" || ev.Note != "scripted" {
			t.Fatalf("event metadata: %+v", ev)
		}
		if ev.N != state.N || ev.Throughput != state.Throughput || ev.Chosen.N != chosen.N {
			t.Fatalf("event state/choice: %+v", ev)
		}
		assertUnscored(t, ev)
	}
}

// assertUnscored fails unless ev carries no score, alternatives or regret,
// in the struct and in its JSON.
func assertUnscored(t *testing.T, ev Event) {
	t.Helper()
	if ev.Chosen.Score != 0 || len(ev.Alts) != 0 || ev.Regret != 0 || ev.CumRegret != 0 {
		t.Fatalf("decision event carries a score or regret: %+v", ev)
	}
	raw, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"score"`, `"regret"`, `"cum_regret"`, `"alts"`} {
		if strings.Contains(string(raw), key) {
			t.Fatalf("decision JSON has %s: %s", key, raw)
		}
	}
}

// TestWrapControllerRegretHandScored: the jump ⟨2,2,2,2⟩ → ⟨4,4,4,4⟩ at
// fixed observed throughput is the case a tick-time score mis-ranks —
// holding scores higher by the hand-computed gap U(2,2,2,2) − U(4,4,4,4),
// whatever the next interval brings — so the decision event records the
// jump and scores nothing.
func TestWrapControllerRegretHandScored(t *testing.T) {
	state := env.State{N: [env.StageCount]int{2, 2, 2, 2}, Throughput: env.StageVec{10, 10, 10, 10}}
	chosen := env.ActionOf(4, 4, 4, 4)
	u := func(a env.Action) float64 { return env.Utility(state.Throughput, a, env.DefaultK) }
	if gap := u(env.ActionOf(2, 2, 2, 2)) - u(chosen); gap <= 0 {
		t.Fatalf("hand-computed hold-vs-jump gap = %v, want > 0", gap)
	}
	r := newEnabled(8)
	WrapController(scripted{act: chosen}, r, "t").Decide(state)
	evs := r.Dump("t", 0)
	if len(evs) != 1 || evs[0].Chosen.N != chosen.N || evs[0].N != state.N {
		t.Fatalf("events: %+v", evs)
	}
	assertUnscored(t, evs[0])
}

// TestWrapControllerZeroRegretWhenChosenIsBest: a hold at minimal
// concurrency records zero regret, and Summarize reports the source as
// unscored rather than as a zero-regret decider.
func TestWrapControllerZeroRegretWhenChosenIsBest(t *testing.T) {
	r := newEnabled(8)
	state := env.State{N: [env.StageCount]int{1, 1, 1, 1}, Throughput: env.StageVec{5, 5, 5, 5}}
	WrapController(scripted{act: env.ActionOf(1, 1, 1, 1)}, r, "t").Decide(state)
	evs := r.Dump("t", 0)
	if len(evs) != 1 {
		t.Fatalf("%d events, want 1", len(evs))
	}
	assertUnscored(t, evs[0])
	sums := Summarize(evs)
	if len(sums) != 1 || sums[0].Regret.N != 0 || sums[0].Kinds[KindDecision] != 1 {
		t.Fatalf("summary: %+v", sums)
	}
}

// scriptedScorer additionally carries a ScoredAlternatives method of the
// shape controllers once used to self-report candidates.
type scriptedScorer struct {
	scripted
	alts []env.Action
}

func (s scriptedScorer) ScoredAlternatives(env.State) []env.Action { return s.alts }

// TestWrapControllerUsesSelfReportedAlternatives: candidates a controller
// reports about itself are not recorded; the event holds only the chosen
// tuple.
func TestWrapControllerUsesSelfReportedAlternatives(t *testing.T) {
	r := newEnabled(8)
	state := env.State{N: [env.StageCount]int{3, 3, 3, 3}, Throughput: env.StageVec{10, 10, 10, 10}}
	chosen := env.ActionOf(4, 4, 4, 4)
	w := WrapController(scriptedScorer{
		scripted: scripted{act: chosen},
		alts:     []env.Action{env.ActionOf(2, 2, 2, 2)},
	}, r, "t")
	if got := w.Decide(state); got != chosen {
		t.Fatalf("wrapper changed the decision: %v", got)
	}
	evs := r.Dump("t", 0)
	if len(evs) != 1 || evs[0].Chosen.N != chosen.N {
		t.Fatalf("events: %+v", evs)
	}
	assertUnscored(t, evs[0])
}

// TestWrapControllerCumulativeAndWarmStart: a second wrapper on the same
// source — a resumed attempt of the same session — continues the source's
// seq series instead of restarting it, and no cumulative regret builds up
// across either wrapper.
func TestWrapControllerCumulativeAndWarmStart(t *testing.T) {
	r := newEnabled(8)
	state := env.State{N: [env.StageCount]int{1, 1, 1, 1}, Throughput: env.StageVec{10, 10, 10, 10}}
	w := WrapController(scripted{act: env.ActionOf(3, 3, 3, 3)}, r, "sess")
	w.Decide(state)
	w.Decide(state)
	WrapController(scripted{act: env.ActionOf(3, 3, 3, 3)}, r, "sess").Decide(state)
	evs := r.Dump("sess", 0)
	if len(evs) != 3 {
		t.Fatalf("%d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d: Seq=%d, want %d (the re-wrapped source continues)", i, ev.Seq, i+1)
		}
		assertUnscored(t, ev)
	}
}

// TestSummarizeScoresOnlyScoredKinds: regret statistics cover the
// arbiter's scored kinds only, so an unscored source is reported by its
// event counts and never as a zero-regret decider.
func TestSummarizeScoresOnlyScoredKinds(t *testing.T) {
	events := []Event{
		{Source: "ctrl:s", Kind: KindDecision},
		{Source: "ctrl:s", Kind: KindDecision},
		{Source: "sched:cap", Kind: KindCap},
		{Source: "sched:arbiter", Kind: KindAdmission, Regret: 2, CumRegret: 2},
		{Source: "sched:arbiter", Kind: KindRebalance, CumRegret: 2},
	}
	sums := Summarize(events)
	if len(sums) != 3 || sums[0].Source != "sched:arbiter" {
		t.Fatalf("summaries: %+v", sums)
	}
	for _, s := range sums {
		want := 0
		if s.Source == "sched:arbiter" {
			want = 2
		}
		if s.Regret.N != want {
			t.Fatalf("%s: regret over %d events, want %d", s.Source, s.Regret.N, want)
		}
	}
	if sums[0].ZeroRegret != 0.5 || sums[0].CumRegret != 2 {
		t.Fatalf("arbiter summary: %+v", sums[0])
	}
	report := Render(Trace{Events: events}, 5)
	regret, unscored, ok := strings.Cut(report, "unscored sources")
	if !ok || !strings.Contains(regret, "per-source regret:") || !strings.Contains(regret, "sched:arbiter") ||
		strings.Contains(regret, "ctrl:s") || !strings.Contains(unscored, "ctrl:s") ||
		!strings.Contains(unscored, "decision=2") || !strings.Contains(unscored, "cap=1") {
		t.Fatalf("report does not split scored from unscored sources:\n%s", report)
	}
}

func TestWrapControllerInactiveRecorderRecordsNothing(t *testing.T) {
	r := NewRecorder() // never enabled
	w := WrapController(scripted{act: env.ActionOf(2, 2, 2, 2)}, r, "t")
	w.Decide(env.State{N: [env.StageCount]int{1, 1, 1, 1}})
	if evs := r.Dump("", 0); len(evs) != 0 {
		t.Fatalf("inactive recorder got %d events", len(evs))
	}
	if w.Name() != "scripted" {
		t.Fatalf("wrapper name=%q", w.Name())
	}
}
