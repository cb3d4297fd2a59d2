package metrics

import (
	"fmt"
	"strings"
)

// Label is one key=value dimension attached to a Sample.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Sample is one exported metric value: a name, optional labels, and a
// float value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Snapshot is an ordered collection of samples representing a system's
// state at one instant. It renders to the Prometheus text exposition
// style (`name{key="value"} 1.5` lines), which is what the scheduler
// daemon serves at /metrics and what cmd/automdt-bench writes with
// -metrics.
type Snapshot struct {
	samples []Sample
}

// Add appends a sample.
func (s *Snapshot) Add(name string, value float64, labels ...Label) {
	s.samples = append(s.samples, Sample{Name: name, Labels: labels, Value: value})
}

// Merge appends every sample of other, preserving order.
func (s *Snapshot) Merge(other Snapshot) {
	s.samples = append(s.samples, other.samples...)
}

// Samples returns the samples in insertion order.
func (s Snapshot) Samples() []Sample {
	return append([]Sample(nil), s.samples...)
}

// Len returns the number of samples.
func (s Snapshot) Len() int { return len(s.samples) }

// labelEscaper escapes backslash, double quote, and newline per the
// Prometheus text format. Replacers are safe for concurrent use.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// Text renders the snapshot as name/value lines, one sample per line:
//
//	automdt_sched_jobs{state="running"} 3
//	automdt_sched_budget{stage="read"} 16
//
// Values render with %g so integers stay integral.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, smp := range s.samples {
		b.WriteString(smp.Name)
		if len(smp.Labels) > 0 {
			b.WriteByte('{')
			for i, l := range smp.Labels {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%s=\"%s\"", l.Key, escapeLabel(l.Value))
			}
			b.WriteByte('}')
		}
		fmt.Fprintf(&b, " %g\n", smp.Value)
	}
	return b.String()
}
