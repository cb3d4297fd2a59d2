package workload

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLargeFiles(t *testing.T) {
	m := LargeFiles(10, 1<<20)
	if len(m) != 10 {
		t.Fatalf("len=%d", len(m))
	}
	if m.TotalBytes() != 10<<20 {
		t.Fatalf("total=%d", m.TotalBytes())
	}
	seen := map[string]bool{}
	for _, f := range m {
		if f.Size != 1<<20 {
			t.Fatalf("size=%d", f.Size)
		}
		if seen[f.Name] {
			t.Fatalf("duplicate name %q", f.Name)
		}
		seen[f.Name] = true
	}
}

func TestMixedExactTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Mixed(10<<20, 100<<10, 2<<20, rng)
	if m.TotalBytes() != 10<<20 {
		t.Fatalf("total=%d want %d", m.TotalBytes(), 10<<20)
	}
	for i, f := range m[:len(m)-1] { // last file may be truncated
		if f.Size < 100<<10 || f.Size > 2<<20 {
			t.Fatalf("file %d size %d outside [100KiB, 2MiB]", i, f.Size)
		}
	}
}

func TestMixedSizeSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := Mixed(100<<20, 100<<10, 2<<20, rng)
	small, large := 0, 0
	for _, f := range m {
		if f.Size < 512<<10 {
			small++
		}
		if f.Size > 1<<20 {
			large++
		}
	}
	if small == 0 || large == 0 {
		t.Fatalf("log-uniform draw degenerate: small=%d large=%d of %d", small, large, len(m))
	}
}

func TestMixedPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mixed(100, 0, 10, rand.New(rand.NewSource(3)))
}

// TestScale: a dataset takes its scale from its Spec at build time; the
// smallest one is a manifest of 1-byte files.
func TestScale(t *testing.T) {
	m, err := Spec{Kind: "large", Count: 2, SizeBytes: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m[0].Size != 1 || m[1].Size != 1 || m.TotalBytes() != 2 {
		t.Fatalf("sizes %d %d, total %d", m[0].Size, m[1].Size, m.TotalBytes())
	}
}

func TestSpecBuildLarge(t *testing.T) {
	m, err := Spec{Kind: "large", Count: 4, SizeBytes: 1 << 20}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 4 || m.TotalBytes() != 4<<20 {
		t.Fatalf("len=%d total=%d", len(m), m.TotalBytes())
	}
}

func TestSpecBuildMixedDeterministic(t *testing.T) {
	spec := Spec{Kind: "mixed", TotalBytes: 4 << 20, MinBytes: 64 << 10, MaxBytes: 1 << 20, Seed: 7}
	a, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := spec.Build()
	if len(a) != len(b) || a.TotalBytes() != 4<<20 {
		t.Fatalf("not deterministic or wrong total: %d vs %d files, total=%d",
			len(a), len(b), a.TotalBytes())
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("file %d differs across builds: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSpecValidateRejects(t *testing.T) {
	bad := []Spec{
		{Kind: "huge"},
		{Kind: "large", Count: 0, SizeBytes: 1},
		{Kind: "large", Count: 1, SizeBytes: 0},
		{Kind: "mixed", TotalBytes: 0, MinBytes: 1, MaxBytes: 2},
		{Kind: "mixed", TotalBytes: 10, MinBytes: 5, MaxBytes: 2},
		// Resource-exhaustion guards: file-count limits and overflow.
		{Kind: "large", Count: MaxSpecFiles + 1, SizeBytes: 1},
		{Kind: "large", Count: 1 << 30, SizeBytes: 1 << 40},
		{Kind: "mixed", TotalBytes: 1 << 40, MinBytes: 1, MaxBytes: 2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d (%+v) unexpectedly valid", i, s)
		}
		if _, err := s.Build(); err == nil {
			t.Errorf("spec %d (%+v) unexpectedly built", i, s)
		}
	}
}

// Property: Mixed always hits the exact requested total and never emits
// zero-size files.
func TestQuickMixedInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		total := int64(1<<20 + rng.Intn(10<<20))
		m := Mixed(total, 64<<10, 1<<20, rng)
		if m.TotalBytes() != total {
			return false
		}
		for _, f := range m {
			if f.Size <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeepTreeSpec(t *testing.T) {
	s := Spec{Kind: "tree", Count: 10, Depth: 4, SizeBytes: 128}
	m, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 10 || m.TotalBytes() != 1280 {
		t.Fatalf("tree manifest: %d files, %d bytes", len(m), m.TotalBytes())
	}
	names := map[string]bool{}
	maxDepth := 0
	for _, f := range m {
		if names[f.Name] {
			t.Fatalf("duplicate name %q", f.Name)
		}
		names[f.Name] = true
		d := strings.Count(f.Name, "/")
		if d > maxDepth {
			maxDepth = d
		}
		if d < 1 {
			t.Fatalf("file %q not inside the tree", f.Name)
		}
	}
	if maxDepth != 4 {
		t.Fatalf("max depth %d, want 4", maxDepth)
	}

	for _, bad := range []Spec{
		{Kind: "tree"},
		{Kind: "tree", Count: 1, SizeBytes: 1, Depth: 10_000},
		{Kind: "tree", Count: MaxSpecFiles + 1, SizeBytes: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v unexpectedly valid", bad)
		}
	}
	// Depth 0 defaults to a single level rather than failing.
	if m := DeepTree(3, 0, 1); len(m) != 3 || strings.Count(m[0].Name, "/") != 1 {
		t.Fatalf("DeepTree depth-0 default: %v", m)
	}
}
