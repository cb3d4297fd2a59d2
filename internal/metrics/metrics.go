// Package metrics provides throughput counters, time-series traces, and
// summary statistics for transfer experiments. The experiment harness uses
// it to record the per-second concurrency and throughput series that
// reproduce the paper's figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing byte counter safe for concurrent
// use. The transfer engine keeps one per stage (read, network, write).
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by n bytes.
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Reset zeroes the counter and returns the previous value.
func (c *Counter) Reset() int64 { return c.n.Swap(0) }

// Point is one sample of a time series.
type Point struct {
	T float64 // seconds since the start of the experiment
	V float64
}

// Series is a named, append-only time series. Safe for concurrent use.
type Series struct {
	Name string

	mu  sync.Mutex
	pts []Point
}

// NewSeries creates an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Record appends a sample.
func (s *Series) Record(t, v float64) {
	s.mu.Lock()
	s.pts = append(s.pts, Point{T: t, V: v})
	s.mu.Unlock()
}

// Points returns a copy of the samples in insertion order.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Point(nil), s.pts...)
}

// Last returns the most recent sample, or a zero Point if empty.
func (s *Series) Last() Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pts) == 0 {
		return Point{}
	}
	return s.pts[len(s.pts)-1]
}

// Values returns just the sample values.
func (s *Series) Values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := make([]float64, len(s.pts))
	for i, p := range s.pts {
		vs[i] = p.V
	}
	return vs
}

// Summary holds descriptive statistics of a sample set.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	P50, P95  float64
	P99       float64
}

// Summarize computes descriptive statistics over vs.
func Summarize(vs []float64) Summary {
	if len(vs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(vs), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range vs {
		s.Mean += v
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	s.Mean /= float64(len(vs))
	for _, v := range vs {
		d := v - s.Mean
		s.Std += d * d
	}
	s.Std = math.Sqrt(s.Std / float64(len(vs)))
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	s.P50 = quantile(sorted, 0.50)
	s.P95 = quantile(sorted, 0.95)
	s.P99 = quantile(sorted, 0.99)
	return s
}

// quantile returns the q-quantile of sorted values by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TimeToReach returns the earliest sample time at which the series value
// reaches or exceeds target, or -1 if it never does. This is how the
// paper reports convergence speed ("reaches 13 TCP streams within 6 s").
func (s *Series) TimeToReach(target float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.pts {
		if p.V >= target {
			return p.T
		}
	}
	return -1
}

// Recorder owns a set of named series for one experiment run.
type Recorder struct {
	mu     sync.Mutex
	series map[string]*Series
	order  []string
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Series returns (creating if necessary) the series with the given name.
func (r *Recorder) Series(name string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = NewSeries(name)
		r.series[name] = s
		r.order = append(r.order, name)
	}
	return s
}

// Names returns the series names in creation order.
func (r *Recorder) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// CSV renders all series as aligned columns (time of the first series)
// suitable for plotting. Series are sampled by index, not resampled by
// time; callers that record once per tick get aligned rows.
func (r *Recorder) CSV() string {
	names := r.Names()
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("t")
	cols := make([][]Point, len(names))
	maxLen := 0
	for i, n := range names {
		fmt.Fprintf(&b, ",%s", n)
		cols[i] = r.Series(n).Points()
		if len(cols[i]) > maxLen {
			maxLen = len(cols[i])
		}
	}
	b.WriteByte('\n')
	for row := 0; row < maxLen; row++ {
		t := math.NaN()
		for _, c := range cols {
			if row < len(c) {
				t = c[row].T
				break
			}
		}
		fmt.Fprintf(&b, "%.3f", t)
		for _, c := range cols {
			if row < len(c) {
				fmt.Fprintf(&b, ",%.4f", c[row].V)
			} else {
				// An explicit NaN keeps every row the same width; a bare
				// trailing comma reads as a ragged row to strict parsers.
				b.WriteString(",NaN")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
