package automdt

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"automdt/internal/env"
	"automdt/internal/flight"
	"automdt/internal/sched"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

// mdLink matches inline markdown links and images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// docFiles returns the repo's markdown documentation set: README.md and
// everything under docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatalf("docs/ directory missing: %v", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	return files
}

// TestDocsLinks verifies every relative link in README.md and docs/*.md
// resolves to a file or directory in the repo — the link check CI's docs
// job runs. External URLs, pure anchors, and GitHub-site-relative paths
// that escape the repo (the CI badge) are skipped.
func TestDocsLinks(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			target, _, _ = strings.Cut(target, "#") // drop the anchor
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), filepath.FromSlash(target))
			abs, err := filepath.Abs(resolved)
			if err != nil || !strings.HasPrefix(abs, root+string(filepath.Separator)) {
				continue // escapes the repo: a GitHub-site-relative link
			}
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%v)", file, m[1], err)
			}
		}
	}
}

// TestDocsLinkedFromReadme pins the documentation contract: the three
// docs-subsystem pages exist and the README links to each of them.
func TestDocsLinkedFromReadme(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"ARCHITECTURE.md", "PROTOCOL.md", "OPERATIONS.md"} {
		path := filepath.Join("docs", doc)
		if _, err := os.Stat(path); err != nil {
			t.Errorf("required doc missing: %v", err)
			continue
		}
		if !strings.Contains(string(readme), "docs/"+doc) {
			t.Errorf("README.md does not link to docs/%s", doc)
		}
	}
}

// metricToken matches a metric name in prose, including a trailing
// wildcard such as automdt_endpoint_*.
var metricToken = regexp.MustCompile(`automdt_[a-z0-9_]+\*?`)

// TestDocsMetricGlossary checks OPERATIONS.md's /v1/metrics glossary
// against what the daemon's scheduler actually emits, both ways: every
// sample name of a scheduler running one job on a two-endpoint fleet
// with a write budget and the flight recorder on is in the glossary, and
// every name the glossary lists is emitted. Snapshots are taken while
// the job runs (per-job and per-session series exist only then) and
// after it is done.
func TestDocsMetricGlossary(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, glossary, ok := strings.Cut(string(doc), "## /v1/metrics glossary")
	if !ok {
		t.Fatal("OPERATIONS.md has no /v1/metrics glossary section")
	}
	glossary, _, _ = strings.Cut(glossary, "\n## ")
	documented := make(map[string]bool)
	for _, tok := range metricToken.FindAllString(glossary, -1) {
		if !strings.HasSuffix(tok, "*") {
			documented[tok] = true
		}
	}

	flight.Enable(0)
	t.Cleanup(func() {
		flight.Default().Disable()
		flight.Default().Reset()
	})
	fr := &sched.FleetRunner{Size: 2, Receiver: transfer.Config{WriteBudgetMbps: 100}}
	t.Cleanup(fr.Close)
	s, err := sched.New(sched.Config{Budget: [env.StageCount]int{4, 4, 4, 4}, Runner: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var mu sync.Mutex
	emitted := make(map[string]bool)
	collect := func() {
		for _, smp := range s.Snapshot().Samples() {
			name := strings.TrimSuffix(strings.TrimSuffix(smp.Name, "_count"), "_sum")
			mu.Lock()
			emitted[name] = true
			mu.Unlock()
		}
	}
	id, err := s.Submit(sched.JobSpec{
		Name:     "glossary",
		Manifest: workload.LargeFiles(2, 1<<20),
		Transfer: transfer.Config{
			ProbeInterval: 20 * time.Millisecond,
			Shaping:       transfer.Shaping{LinkMbps: 100},
			Hooks:         transfer.Hooks{OnTick: func(env.State) { collect() }},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if st, err := s.Wait(ctx, id); err != nil || st.State != "done" {
		t.Fatalf("job: %+v, %v", st, err)
	}
	collect()

	var undocumented, unemitted []string
	for name := range emitted {
		if !documented[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range documented {
		if !emitted[name] {
			unemitted = append(unemitted, name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(unemitted)
	if len(undocumented) > 0 {
		t.Errorf("emitted but missing from the OPERATIONS.md glossary: %v", undocumented)
	}
	if len(unemitted) > 0 {
		t.Errorf("in the OPERATIONS.md glossary but never emitted: %v", unemitted)
	}
}

// docKey matches a backquoted JSON key in a markdown table's first cell.
var docKey = regexp.MustCompile("`([a-z_]+)`")

// jsonKeys returns the JSON keys of a struct type, read from its tags.
func jsonKeys(t reflect.Type) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if name != "" && name != "-" {
			keys = append(keys, name)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestDocsFlightSchema checks FLIGHT.md's "Event schema" section against
// the trace the binaries emit: its first key table lists exactly the
// JSON keys of flight.Event and its second exactly those of flight.Alt,
// both ways, and its JSON example decodes into flight.Trace with no
// unknown field.
func TestDocsFlightSchema(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "FLIGHT.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "## Event schema")
	if !ok {
		t.Fatal("FLIGHT.md has no Event schema section")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	// Tables are runs of "|" lines; the first two rows of each are the
	// header and the separator.
	var tables [][]string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		if !inTable {
			tables = append(tables, nil)
			inTable = true
		}
		tables[len(tables)-1] = append(tables[len(tables)-1], line)
	}
	types := []reflect.Type{reflect.TypeOf(flight.Event{}), reflect.TypeOf(flight.Alt{})}
	if len(tables) != len(types) {
		t.Fatalf("Event schema has %d key tables, want %d (Event, Alt)", len(tables), len(types))
	}
	for i, typ := range types {
		var documented []string
		for _, row := range tables[i][2:] {
			first := strings.Split(row, "|")[1]
			for _, m := range docKey.FindAllStringSubmatch(first, -1) {
				documented = append(documented, m[1])
			}
		}
		sort.Strings(documented)
		if want := jsonKeys(typ); !reflect.DeepEqual(documented, want) {
			t.Errorf("FLIGHT.md's %s table lists keys %v, the struct tags are %v", typ.Name(), documented, want)
		}
	}

	_, example, ok := strings.Cut(section, "```json\n")
	if !ok {
		t.Fatal("Event schema has no JSON example")
	}
	example, _, _ = strings.Cut(example, "```")
	dec := json.NewDecoder(strings.NewReader(example))
	dec.DisallowUnknownFields()
	var tr flight.Trace
	if err := dec.Decode(&tr); err != nil {
		t.Fatalf("FLIGHT.md's JSON example does not decode into flight.Trace: %v", err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("FLIGHT.md's JSON example has no events")
	}
}
