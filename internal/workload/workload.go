// Package workload generates the transfer datasets used in the paper's
// evaluation: uniform large-file sets (1000×1 GB in the paper, scaled
// down here) and mixed datasets of log-uniformly distributed file sizes
// between 100 KB and 2 GB (§V).
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// File describes one file to transfer.
type File struct {
	Name string
	Size int64
}

// Manifest is an ordered list of files.
type Manifest []File

// TotalBytes sums the file sizes.
func (m Manifest) TotalBytes() int64 {
	var n int64
	for _, f := range m {
		n += f.Size
	}
	return n
}

// LargeFiles builds the paper's "Dataset A" shape: count files of equal
// size (the paper uses 1000 × 1 GB; benchmarks scale this down).
func LargeFiles(count int, size int64) Manifest {
	m := make(Manifest, count)
	for i := range m {
		m[i] = File{Name: fmt.Sprintf("large-%04d.dat", i), Size: size}
	}
	return m
}

// Mixed builds the paper's "Dataset B" shape: files with log-uniform
// sizes in [minSize, maxSize] until totalBytes is reached (the paper uses
// 1 TB of 100 KB–2 GB files). The final file is truncated to land exactly
// on totalBytes. rng makes the draw reproducible.
func Mixed(totalBytes, minSize, maxSize int64, rng *rand.Rand) Manifest {
	if minSize <= 0 || maxSize < minSize || totalBytes <= 0 {
		panic(fmt.Sprintf("workload: invalid Mixed parameters total=%d min=%d max=%d",
			totalBytes, minSize, maxSize))
	}
	var m Manifest
	var acc int64
	logMin, logMax := math.Log(float64(minSize)), math.Log(float64(maxSize))
	for acc < totalBytes {
		sz := int64(math.Exp(logMin + rng.Float64()*(logMax-logMin)))
		if sz < 1 {
			sz = 1
		}
		if acc+sz > totalBytes {
			sz = totalBytes - acc
		}
		m = append(m, File{Name: fmt.Sprintf("mixed-%05d.dat", len(m)), Size: sz})
		acc += sz
	}
	return m
}

// DeepTree builds a pathological deep-directory dataset: count files of
// size bytes each, spread along a directory chain depth levels deep
// (file i lands at depth 1 + i mod depth). Path length, not data volume,
// is the stressor — manifest encoding, per-file control-plane state, and
// any store that maps names to paths all see the worst case.
func DeepTree(count, depth int, size int64) Manifest {
	if depth < 1 {
		depth = 1
	}
	// prefixes[d] is the directory chain d levels deep ("" at the root).
	prefixes := make([]string, depth+1)
	for d := 1; d <= depth; d++ {
		prefixes[d] = fmt.Sprintf("%sd%02d/", prefixes[d-1], d-1)
	}
	m := make(Manifest, count)
	for i := range m {
		m[i] = File{Name: fmt.Sprintf("%stree-%05d.dat", prefixes[i%depth+1], i), Size: size}
	}
	return m
}

// Spec is a declarative, JSON-friendly dataset description — the wire
// counterpart of Manifest used by the scheduler daemon's submit API. Kind
// selects the generator: "large" (Count equal files of SizeBytes, the
// paper's Dataset A shape), "mixed" (log-uniform sizes in
// [MinBytes, MaxBytes] totalling TotalBytes, the Dataset B shape), or
// "tree" (Count files of SizeBytes spread over a directory chain Depth
// levels deep — the adversarial metadata-heavy shape the chaos matrix
// uses alongside its 10⁵-tiny-files and one-huge-file cells).
type Spec struct {
	Kind       string `json:"kind"`
	Count      int    `json:"count,omitempty"`
	SizeBytes  int64  `json:"size_bytes,omitempty"`
	TotalBytes int64  `json:"total_bytes,omitempty"`
	MinBytes   int64  `json:"min_bytes,omitempty"`
	MaxBytes   int64  `json:"max_bytes,omitempty"`
	Depth      int    `json:"depth,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
}

// MaxSpecFiles bounds the number of files a Spec may describe. Specs
// arrive over the daemon's submit API, so Build must not let one request
// allocate an unbounded manifest.
const MaxSpecFiles = 1 << 20

// Validate reports whether the spec describes a buildable dataset.
func (s Spec) Validate() error {
	switch s.Kind {
	case "large":
		if s.Count <= 0 || s.SizeBytes <= 0 {
			return fmt.Errorf("workload: large spec needs count>0 and size_bytes>0, got count=%d size=%d",
				s.Count, s.SizeBytes)
		}
		if s.Count > MaxSpecFiles {
			return fmt.Errorf("workload: large spec count %d exceeds the %d-file limit", s.Count, MaxSpecFiles)
		}
		if s.SizeBytes > math.MaxInt64/int64(s.Count) {
			return fmt.Errorf("workload: large spec count %d × size %d overflows", s.Count, s.SizeBytes)
		}
	case "mixed":
		if s.TotalBytes <= 0 || s.MinBytes <= 0 || s.MaxBytes < s.MinBytes {
			return fmt.Errorf("workload: mixed spec needs total_bytes>0 and 0<min_bytes<=max_bytes, got total=%d min=%d max=%d",
				s.TotalBytes, s.MinBytes, s.MaxBytes)
		}
		// Worst case every drawn file is MinBytes, so total/min bounds
		// the manifest length.
		if s.TotalBytes/s.MinBytes > MaxSpecFiles {
			return fmt.Errorf("workload: mixed spec could emit %d files (total/min), exceeding the %d-file limit",
				s.TotalBytes/s.MinBytes, MaxSpecFiles)
		}
	case "tree":
		if s.Count <= 0 || s.SizeBytes <= 0 {
			return fmt.Errorf("workload: tree spec needs count>0 and size_bytes>0, got count=%d size=%d",
				s.Count, s.SizeBytes)
		}
		if s.Count > MaxSpecFiles {
			return fmt.Errorf("workload: tree spec count %d exceeds the %d-file limit", s.Count, MaxSpecFiles)
		}
		// Each level adds a "dNN/" segment; bound depth so the longest
		// name stays well under common PATH_MAX-style limits.
		if s.Depth > 512 {
			return fmt.Errorf("workload: tree spec depth %d exceeds the 512-level limit", s.Depth)
		}
	default:
		return fmt.Errorf("workload: unknown dataset kind %q (want \"large\", \"mixed\", or \"tree\")", s.Kind)
	}
	return nil
}

// Build materializes the manifest the spec describes.
func (s Spec) Build() (Manifest, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case "large":
		return LargeFiles(s.Count, s.SizeBytes), nil
	case "tree":
		return DeepTree(s.Count, s.Depth, s.SizeBytes), nil
	default: // "mixed", already validated
		return Mixed(s.TotalBytes, s.MinBytes, s.MaxBytes, rand.New(rand.NewSource(s.Seed))), nil
	}
}
