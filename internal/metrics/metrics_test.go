package metrics

import (
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Add(10)
	c.Add(5)
	if n := c.Reset(); n != 15 {
		t.Fatalf("Reset=%d, want 15", n)
	}
	if n := c.Reset(); n != 0 {
		t.Fatalf("Reset after Reset=%d, want 0", n)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := c.Reset(); n != 16000 {
		t.Fatalf("lost updates: %d", n)
	}
}

func TestSeriesRecordAndQuery(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 5; i++ {
		s.Record(float64(i), float64(i*i))
	}
	if n := len(s.Points()); n != 5 {
		t.Fatalf("%d points, want 5", n)
	}
	if last := s.Last(); last.T != 4 || last.V != 16 {
		t.Fatalf("Last=%v", last)
	}
	vs := s.Values()
	if len(vs) != 5 || vs[3] != 9 {
		t.Fatalf("Values=%v", vs)
	}
}

func TestTimeToReach(t *testing.T) {
	s := NewSeries("cc")
	for i, v := range []float64{1, 3, 7, 13, 13} {
		s.Record(float64(i), v)
	}
	if got := s.TimeToReach(13); got != 3 {
		t.Fatalf("TimeToReach(13)=%v", got)
	}
	if got := s.TimeToReach(20); got != -1 {
		t.Fatalf("TimeToReach(20)=%v want -1", got)
	}
}

func TestStability(t *testing.T) {
	s := NewSeries("cc")
	for i, v := range []float64{0, 5, 10, 10, 10, 10} {
		s.Record(float64(i), v)
	}
	// A series that settles at its target has no spread after reaching it.
	pts := s.Points()
	var tail []float64
	for _, p := range pts[int(s.TimeToReach(10)):] {
		tail = append(tail, p.V)
	}
	if sm := Summarize(tail); sm.N != 4 || sm.Std != 0 {
		t.Fatalf("settled tail %+v, want 4 samples with no spread", sm)
	}
	if got := s.TimeToReach(99); got != -1 {
		t.Fatalf("unreached target: TimeToReach=%v, want -1", got)
	}
}

func TestSummarize(t *testing.T) {
	sm := Summarize([]float64{1, 2, 3, 4, 5})
	if sm.N != 5 || sm.Mean != 3 || sm.Min != 1 || sm.Max != 5 || sm.P50 != 3 {
		t.Fatalf("summary=%+v", sm)
	}
	if math.Abs(sm.Std-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("std=%v", sm.Std)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Fatal("empty summary should be zero")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sm := Summarize([]float64{0, 10})
	if sm.P50 != 5 {
		t.Fatalf("P50=%v want 5", sm.P50)
	}
}

func TestRecorderSeriesCreationAndOrder(t *testing.T) {
	r := NewRecorder()
	r.Series("b").Record(0, 1)
	r.Series("a").Record(0, 2)
	r.Series("b").Record(1, 3)
	names := r.Names()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Fatalf("names=%v", names)
	}
}

func TestRecorderCSV(t *testing.T) {
	r := NewRecorder()
	r.Series("x").Record(0, 1)
	r.Series("x").Record(1, 2)
	r.Series("y").Record(0, 3)
	csv := r.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv rows=%d: %q", len(lines), csv)
	}
	if lines[0] != "t,x,y" {
		t.Fatalf("header=%q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "1.000,2.0000,") {
		t.Fatalf("row 2=%q", lines[2])
	}
}

func TestSummarizeP99(t *testing.T) {
	vs := make([]float64, 101) // 0..100: P99 interpolates exactly to 99
	for i := range vs {
		vs[i] = float64(i)
	}
	sm := Summarize(vs)
	if sm.P99 != 99 {
		t.Fatalf("P99=%v, want 99", sm.P99)
	}
	if sm.P95 != 95 {
		t.Fatalf("P95=%v, want 95", sm.P95)
	}
	if Summarize(nil).P99 != 0 {
		t.Fatal("empty P99 should be 0")
	}
}

func TestRecorderCSVRaggedRoundTrip(t *testing.T) {
	// Series of different lengths: every row must still have the full
	// column count, with explicit NaN filling the short columns, and the
	// output must round-trip through a strict CSV parser.
	r := NewRecorder()
	r.Series("x").Record(0, 1)
	r.Series("x").Record(1, 2)
	r.Series("x").Record(2, 3)
	r.Series("y").Record(0, 9)
	rows, err := csv.NewReader(strings.NewReader(r.CSV())).ReadAll()
	if err != nil {
		t.Fatalf("strict CSV parse failed: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows=%d, want header+3", len(rows))
	}
	for i, row := range rows {
		if len(row) != 3 {
			t.Fatalf("row %d has %d fields, want 3: %v", i, len(row), row)
		}
	}
	// Rows 2 and 3 have no y sample: the cell must parse as NaN, not be
	// an empty string.
	for _, row := range rows[2:] {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("missing cell %q does not parse as a float: %v", row[2], err)
		}
		if !math.IsNaN(v) {
			t.Fatalf("missing cell parsed to %v, want NaN", v)
		}
	}
	if rows[1][2] != "9.0000" {
		t.Fatalf("present y cell=%q", rows[1][2])
	}
}

// Property: mean lies within [min, max] and P50 within [min, max].
func TestQuickSummaryBounds(t *testing.T) {
	f := func(vs []float64) bool {
		// Filter non-finite inputs that quick may generate.
		// Filter values whose sum could overflow float64.
		clean := vs[:0]
		for _, v := range vs {
			if !math.IsNaN(v) && math.Abs(v) < 1e300 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 &&
			s.P50 >= s.Min-1e-9 && s.P50 <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
