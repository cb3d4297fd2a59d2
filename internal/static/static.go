// Package static implements the Globus-like baseline of Table I: a
// monolithic, statically configured optimizer. Globus (globus-url-copy)
// is driven by fixed concurrency/parallelism settings chosen before the
// transfer (the paper uses concurrency 4, parallelism 8) and never adapts;
// its monolithic architecture couples the read, network, and write stages
// to the same thread count.
package static

import "automdt/internal/env"

// Controller applies a fixed concurrency to every stage dimension: the
// read, write, and connection counts are all Concurrency, with one
// stream per connection (Globus's "concurrency" is its parallel
// connection count), so the total network concurrency stays equal to the
// other stages'.
type Controller struct {
	// Concurrency is the fixed stream count (paper's Globus setting: 4).
	Concurrency int
}

// New creates a static monolithic controller.
func New(concurrency int) *Controller {
	if concurrency < 1 {
		concurrency = 1
	}
	return &Controller{Concurrency: concurrency}
}

// Name implements env.Controller.
func (c *Controller) Name() string { return "static" }

// Decide implements env.Controller: the same fixed value for every
// dimension (one stream per connection), regardless of observed state.
func (c *Controller) Decide(env.State) env.Action {
	return env.ActionOf(c.Concurrency, c.Concurrency, 1, c.Concurrency)
}

// Monolithic is an adaptive-but-coupled controller used in ablations: it
// delegates to an inner controller and then forces the read, conns, and
// write dimensions to the maximum of the chosen values (one stream per
// connection), emulating the monolithic designs the paper criticizes in
// §III (the slowest component dictates every stage's concurrency).
type Monolithic struct {
	Inner env.Controller
}

// Name implements env.Controller.
func (m *Monolithic) Name() string { return "monolithic(" + m.Inner.Name() + ")" }

// Decide implements env.Controller.
func (m *Monolithic) Decide(s env.State) env.Action {
	a := m.Inner.Decide(s)
	maxN := 1
	for _, n := range a.N {
		if n > maxN {
			maxN = n
		}
	}
	return env.ActionOf(maxN, maxN, 1, maxN)
}
