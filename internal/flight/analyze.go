package flight

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"automdt/internal/env"
	"automdt/internal/metrics"
)

// SourceSummary is one source's profile over a trace: its event counts
// and, over its scored events only (admissions and rebalances), its
// regret.
type SourceSummary struct {
	Source string
	// Kinds counts events by kind.
	Kinds map[string]int
	// Regret summarizes the per-decision regret distribution of the
	// scored events (N, mean, P50/P95/P99, max); N is 0 for a source
	// that records only unscored kinds.
	Regret metrics.Summary
	// CumRegret is the final cumulative regret of the source's trace.
	CumRegret float64
	// ZeroRegret is the fraction of scored decisions whose regret was 0 —
	// ones where no alternative beat the chosen action.
	ZeroRegret float64
}

// Summarize groups a trace's events by source and computes each source's
// regret profile over its scored events, sorted by descending cumulative
// regret so the most regretful decider leads the report.
func Summarize(events []Event) []SourceSummary {
	bySource := make(map[string]*SourceSummary)
	regrets := make(map[string][]float64)
	order := []string{}
	for _, ev := range events {
		s := bySource[ev.Source]
		if s == nil {
			s = &SourceSummary{Source: ev.Source, Kinds: make(map[string]int)}
			bySource[ev.Source] = s
			order = append(order, ev.Source)
		}
		s.Kinds[ev.Kind]++
		if !scored(ev.Kind) {
			continue
		}
		regrets[ev.Source] = append(regrets[ev.Source], ev.Regret)
		if ev.CumRegret > s.CumRegret {
			s.CumRegret = ev.CumRegret
		}
	}
	out := make([]SourceSummary, 0, len(order))
	for _, src := range order {
		s := bySource[src]
		rs := regrets[src]
		s.Regret = metrics.Summarize(rs)
		zero := 0
		for _, r := range rs {
			if r == 0 {
				zero++
			}
		}
		if len(rs) > 0 {
			s.ZeroRegret = float64(zero) / float64(len(rs))
		}
		out = append(out, *s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].CumRegret > out[j].CumRegret })
	return out
}

// TopRegret returns the n highest-regret scored events of a trace,
// descending — the "moments" view: which specific decisions cost the
// most.
func TopRegret(events []Event, n int) []Event {
	var top []Event
	for _, ev := range events {
		if scored(ev.Kind) {
			top = append(top, ev)
		}
	}
	sort.SliceStable(top, func(i, j int) bool { return top[i].Regret > top[j].Regret })
	if len(top) > n {
		top = top[:n]
	}
	return top
}

// Render formats a trace as the flightdump report: a regret summary per
// source with scored events, event counts by kind for every other
// source, plus the topN highest-regret moments.
func Render(t Trace, topN int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight trace: %d events, %d sources, recorder enabled=%v\n",
		len(t.Events), len(t.Sources), t.Enabled)
	sums := Summarize(t.Events)
	if len(sums) == 0 {
		b.WriteString("no events recorded (was the recorder enabled during the run?)\n")
		return b.String()
	}
	var regret, counts strings.Builder
	for _, s := range sums {
		if s.Regret.N == 0 {
			fmt.Fprintf(&counts, "  %-32s %s\n", s.Source, kindCounts(s.Kinds))
			continue
		}
		fmt.Fprintf(&regret, "  %-32s events=%-6d cum=%-10.3f mean=%-8.4f p95=%-8.4f p99=%-8.4f max=%-8.4f zero=%.0f%%  (%s)\n",
			s.Source, s.Regret.N, s.CumRegret, s.Regret.Mean, s.Regret.P95,
			s.Regret.P99, s.Regret.Max, 100*s.ZeroRegret, kindCounts(s.Kinds))
	}
	if regret.Len() > 0 {
		b.WriteString("\nper-source regret:\n" + regret.String())
	}
	if counts.Len() > 0 {
		b.WriteString("\nunscored sources (events by kind):\n" + counts.String())
	}
	if topN > 0 {
		b.WriteString("\ntop-regret moments:\n")
		for _, ev := range TopRegret(t.Events, topN) {
			if ev.Regret == 0 {
				break
			}
			ts := time.Unix(0, ev.UnixNano).UTC().Format("15:04:05.000")
			fmt.Fprintf(&b, "  %s %-32s #%-6d %-10s regret=%.4f chose %v",
				ts, ev.Source, ev.Seq, ev.Kind, ev.Regret, chosenLabel(ev.Chosen))
			if len(ev.Alts) > 0 {
				fmt.Fprintf(&b, " over %s", chosenLabel(ev.Alts[0]))
			}
			if ev.Note != "" {
				fmt.Fprintf(&b, "  (%s)", ev.Note)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func kindCounts(kinds map[string]int) string {
	out := make([]string, 0, len(kinds))
	for k, n := range kinds {
		out = append(out, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

func chosenLabel(a Alt) string {
	if a.Label != "" && a.N == ([env.StageCount]int{}) {
		return fmt.Sprintf("%s(%.3f)", a.Label, a.Score)
	}
	if a.Label != "" {
		return fmt.Sprintf("%s%v(%.3f)", a.Label, a.N, a.Score)
	}
	return fmt.Sprintf("%v(%.3f)", a.N, a.Score)
}
