package flight

import (
	"time"

	"automdt/internal/env"
)

// instrumented wraps an env.Controller so every Decide tick emits a
// decision event: the observed state and the chosen tuple. It records
// what happened and scores nothing: a controller's objective is the
// utility realised on the next interval, which no tick can know. It is
// installed only when the recorder is active (the Active check happens
// once at wrap time, not per tick), so an idle recorder costs the engine
// nothing.
type instrumented struct {
	inner  env.Controller
	rec    *Recorder
	source string
}

// WrapController returns inner instrumented to record each decision into
// rec under the given source. A resumed attempt of the same session
// wraps under the same source, so its events continue the prior
// attempt's seq numbering in one ring.
func WrapController(inner env.Controller, rec *Recorder, source string) env.Controller {
	if inner == nil || rec == nil {
		return inner
	}
	return &instrumented{inner: inner, rec: rec, source: source}
}

// Name implements env.Controller, passing the inner name through so
// experiment reports are unchanged by instrumentation.
func (w *instrumented) Name() string { return w.inner.Name() }

// Decide implements env.Controller.
func (w *instrumented) Decide(s env.State) env.Action {
	chosen := w.inner.Decide(s)
	if !w.rec.Active() {
		return chosen
	}
	w.rec.Record(Event{
		UnixNano:   time.Now().UnixNano(),
		Source:     w.source,
		Kind:       KindDecision,
		N:          s.N,
		Throughput: s.Throughput,
		Chosen:     Alt{N: chosen.N},
		Note:       w.inner.Name(),
	})
	return chosen
}
