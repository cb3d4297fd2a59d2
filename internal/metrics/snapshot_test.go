package metrics

import (
	"strings"
	"testing"
)

func TestSnapshotText(t *testing.T) {
	var s Snapshot
	s.Add("jobs_active", 3)
	s.Add("job_mbps", 912.5, L("job", "7"), L("ctrl", "automdt"))
	got := s.Text()
	want := "jobs_active 3\n" +
		"job_mbps{job=\"7\",ctrl=\"automdt\"} 912.5\n"
	if got != want {
		t.Fatalf("Text:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshotLabelEscaping(t *testing.T) {
	var s Snapshot
	s.Add("m", 1, L("name", "a\"b\\c\nd"))
	got := s.Text()
	want := `m{name="a\"b\\c\nd"} 1` + "\n"
	if got != want {
		t.Fatalf("Text = %q, want %q", got, want)
	}
}

func TestSnapshotMergeAndSamples(t *testing.T) {
	var a, b Snapshot
	a.Add("x", 1)
	b.Add("y", 2)
	a.Merge(b)
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
	got := a.Samples()
	if got[0].Name != "x" || got[1].Name != "y" {
		t.Fatalf("Samples order = %v", got)
	}
}

// TestRecorderSnapshot: a recorder hands back its series by name in
// creation order, and Summarize gives each one's figures.
func TestRecorderSnapshot(t *testing.T) {
	r := NewRecorder()
	r.Series("thr").Record(0, 100)
	r.Series("thr").Record(1, 300)
	r.Series("empty") // created but never recorded
	if got := strings.Join(r.Names(), ","); got != "thr,empty" {
		t.Fatalf("Names = %s, want thr,empty", got)
	}
	thr := r.Series("thr")
	sum := Summarize(thr.Values())
	if thr.Last().V != 300 || sum.Mean != 200 || sum.Max != 300 || sum.P99 != 298 {
		t.Fatalf("thr: last %v, %+v", thr.Last().V, sum)
	}
	if n := Summarize(r.Series("empty").Values()).N; n != 0 {
		t.Fatalf("empty series summarizes %d samples", n)
	}
}
