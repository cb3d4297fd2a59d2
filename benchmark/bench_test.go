package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// benchmarkJSON is the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// TestCatalogMatchesBenchmarkJSON holds the harness's catalog and the
// contract file together: same workloads, same metrics, same units,
// directions and bounds.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Workloads, workloadDefs) {
		t.Errorf("workloads differ:\n BENCHMARK.json %v\n catalog        %v", b.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs:\n BENCHMARK.json %v\n catalog        %v", b.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs:\n BENCHMARK.json %v\n catalog        %v", b.PerLayer, perLayerDefs)
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload end to end at tiny sizes, traced, and
// checks that the metrics emitted are exactly the catalog's and that
// every output verified.
func TestSmoke(t *testing.T) {
	o := options{seed: 7, seconds: 1, trace: true, smoke: true, dir: t.TempDir()}
	for _, d := range workloadDefs {
		r, err := runWorkload(d.Name, o)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if !r.correct() || r.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, leaked %d, errors %v", d.Name, r.Attempted, r.Failed, r.Leaked, r.Errors)
		}
		if got, want := keys(r.EndToEnd), names(endToEndDefs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end metrics %v, catalog %v", d.Name, got, want)
		}
		if got, want := keys(r.PerLayer), names(perLayerDefs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer metrics %v, catalog %v", d.Name, got, want)
		}
		for k, v := range r.EndToEnd {
			if v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", d.Name, k, v)
			}
		}
		if f := r.PerLayer["transfer.phase_residual_frac"]; f > 0.02 {
			t.Errorf("%s: phases leave %.3f of the op wall uncovered", d.Name, f)
		}
		for _, trace := range []bool{false, true} {
			var line struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(driverLine(r, trace)), &line); err != nil {
				t.Fatalf("%s: driver line: %v", d.Name, err)
			}
			want := len(endToEndDefs)
			if trace {
				want = len(perLayerDefs)
			}
			if !line.Correct || line.Attempted != r.Attempted || len(line.Metrics) != want {
				t.Errorf("%s: driver line (trace %v) has correct=%v attempted=%d metrics=%d, want true/%d/%d",
					d.Name, trace, line.Correct, line.Attempted, len(line.Metrics), r.Attempted, want)
			}
		}
	}
}
